package mincore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"mincore/internal/data"
	"mincore/internal/geom"
)

// newGoldenEnv, when set, makes TestNewMatchesParentGolden regenerate
// testdata/new_golden.json from the current code instead of checking
// against it; its value is recorded as the source commit:
//
//	MINCORE_WRITE_NEW_GOLDEN=$(git rev-parse HEAD) go test -run TestNewMatchesParentGolden .
const newGoldenEnv = "MINCORE_WRITE_NEW_GOLDEN"

const newGoldenPath = "testdata/new_golden.json"

// newGoldenResult pins one New: the bits of every normalized point (as a
// SHA-256 over Point(0), Point(1), … in order, little-endian
// math.Float64bits per coordinate), the extreme-point indices in order,
// and the bits of α.
type newGoldenResult struct {
	Name      string `json:"name"`
	N         int    `json:"n"`
	Dim       int    `json:"dim"`
	PointsSHA string `json:"points_sha256"`
	X         []int  `json:"x"`
	AlphaBits uint64 `json:"alpha_bits"`
}

type newGoldenFile struct {
	Commit string            `json:"commit"`
	Inputs []newGoldenResult `json:"inputs"`
}

type newGoldenCase struct {
	name string
	pts  []Point
	seed int64
}

func asPoints(pts []geom.Vector) []Point {
	out := make([]Point, len(pts))
	for i, p := range pts {
		out[i] = Point(p)
	}
	return out
}

// constantAttrPoints is a 4-D normal cloud whose third attribute is the
// same for every point, so New drops it before normalizing.
func constantAttrPoints() []Point {
	pts := asPoints(data.Normal(400, 4, 11).Points)
	for _, p := range pts {
		p[2] = 3.5
	}
	return pts
}

// duplicateHeavyPoints repeats 60 base points many times, and pairs
// points that differ only in the sign of a zero coordinate: dedupe keeps
// both of such a pair and drops every exact repeat.
func duplicateHeavyPoints() []Point {
	base := asPoints(data.Normal(60, 3, 12).Points)
	negZero := math.Copysign(0, -1)
	var pts []Point
	for r := 0; r < 7; r++ {
		for i, b := range base {
			p := append(Point(nil), b...)
			if i%5 == 0 {
				p[i%3] = 0
				if r%2 == 1 {
					p[i%3] = negZero
				}
			}
			pts = append(pts, p)
		}
	}
	return pts
}

func newGoldenCases() []newGoldenCase {
	var cs []newGoldenCase
	for s := int64(1); s <= 5; s++ {
		cs = append(cs, newGoldenCase{fmt.Sprintf("road-10000-s%d", s), asPoints(data.RoadNetwork(10000, s).Points), s})
	}
	for s := int64(1); s <= 5; s++ {
		cs = append(cs, newGoldenCase{fmt.Sprintf("normal-300-d5-s%d", s), asPoints(data.Normal(300, 5, s).Points), s})
	}
	cs = append(cs,
		newGoldenCase{"normal-500-d2-s3", asPoints(data.Normal(500, 2, 3).Points), 3},
		newGoldenCase{"constant-attr-400-d4", constantAttrPoints(), 4},
		newGoldenCase{"duplicate-heavy-420-d3", duplicateHeavyPoints(), 5},
	)
	return cs
}

func newGoldenRun(t *testing.T, c newGoldenCase) newGoldenResult {
	t.Helper()
	cs, err := New(c.pts, WithSeed(c.seed))
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	h := sha256.New()
	var buf [8]byte
	for i := 0; i < cs.N(); i++ {
		for _, v := range cs.Point(i) {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return newGoldenResult{
		Name:      c.name,
		N:         cs.N(),
		Dim:       cs.Dim(),
		PointsSHA: hex.EncodeToString(h.Sum(nil)),
		X:         append([]int(nil), cs.Instance().X...),
		AlphaBits: math.Float64bits(cs.Alpha()),
	}
}

// New's normalized coordinates, extreme points (in order) and α must
// match, bit for bit, what the code at the recorded commit produced.
func TestNewMatchesParentGolden(t *testing.T) {
	cases := newGoldenCases()
	if commit := os.Getenv(newGoldenEnv); commit != "" {
		g := newGoldenFile{Commit: commit}
		for _, c := range cases {
			g.Inputs = append(g.Inputs, newGoldenRun(t, c))
		}
		buf, err := json.MarshalIndent(g, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(newGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(newGoldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d inputs, commit %s)", newGoldenPath, len(g.Inputs), commit)
		return
	}
	buf, err := os.ReadFile(newGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var g newGoldenFile
	if err := json.Unmarshal(buf, &g); err != nil {
		t.Fatal(err)
	}
	if len(g.Inputs) != len(cases) {
		t.Fatalf("golden file has %d inputs, want %d", len(g.Inputs), len(cases))
	}
	for i, c := range cases {
		got, want := newGoldenRun(t, c), g.Inputs[i]
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s (golden from %s):\n got %+v\nwant %+v", c.name, g.Commit, got, want)
		}
	}
}

// Every point New returns is a view into one shared block, capped at its
// own coordinates: appending to one point must reallocate rather than
// overwrite its neighbour.
func TestPointViewsAreCapped(t *testing.T) {
	for _, opts := range [][]Option{
		{WithSeed(2)},
		{Options{Seed: 2, PerturbScale: -1}},
		{Options{Seed: 2, PerturbScale: -1, SkipNormalize: true}},
	} {
		cs, err := New(constantAttrPoints(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+1 < cs.N(); i++ {
			next := append(Point(nil), cs.Point(i+1)...)
			grown := append(cs.Point(i), 99)
			if len(grown) != cs.Dim()+1 {
				t.Fatalf("point %d: appended length %d", i, len(grown))
			}
			for k, v := range cs.Point(i + 1) {
				if math.Float64bits(v) != math.Float64bits(next[k]) {
					t.Fatalf("%v: appending to point %d changed point %d", opts, i, i+1)
				}
			}
		}
	}
}

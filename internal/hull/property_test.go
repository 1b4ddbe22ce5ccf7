package hull

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mincore/internal/geom"
)

// Property: the 2D hull contains every input point (no point strictly
// outside any hull edge) and its vertices are input points.
func TestPropertyHull2DContainment(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(nRaw)%60
		pts := make([]geom.Vector, n)
		for i := range pts {
			pts[i] = geom.Vector{rng.NormFloat64(), rng.NormFloat64()}
		}
		h := mustHull2D(t, pts)
		for _, id := range h {
			if id < 0 || id >= n {
				return false
			}
		}
		if len(h) < 3 {
			return true // degenerate; covered by unit tests
		}
		for _, p := range pts {
			for i := range h {
				a, b := pts[h[i]], pts[h[(i+1)%len(h)]]
				if geom.Orient2D(a, b, p) < -1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: ExtremePoints is invariant under point duplication — adding
// copies of existing points never changes the extreme set.
func TestPropertyExtremeInvariantUnderDuplication(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 3 + int(seed%2)
		pts := make([]geom.Vector, 40)
		for i := range pts {
			pts[i] = geom.NewVector(d)
			for j := range pts[i] {
				pts[i][j] = rng.NormFloat64()
			}
		}
		x1 := mustExtremePoints(t, pts)
		dup := append(append([]geom.Vector(nil), pts...), pts[:10]...)
		x2 := mustExtremePoints(t, dup)
		// Compare as coordinate sets (duplicates may swap which copy is
		// reported).
		set1 := make(map[string]bool)
		for _, id := range x1 {
			set1[vkey(pts[id])] = true
		}
		for _, id := range x2 {
			if !set1[vkey(dup[id])] {
				return false
			}
		}
		return len(x1) == len(x2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func vkey(v geom.Vector) string {
	b := make([]byte, 0, len(v)*20)
	for _, c := range v {
		b = appendFloat(b, c)
	}
	return string(b)
}

func appendFloat(b []byte, f float64) []byte {
	u := math.Float64bits(f)
	for i := 0; i < 8; i++ {
		b = append(b, byte(u>>(8*i)))
	}
	return b
}

// Property: translating the point set translates the hull (vertex indices
// unchanged) in 2D.
func TestPropertyHull2DTranslationInvariant(t *testing.T) {
	f := func(seed int64, dx, dy float64) bool {
		if dx != dx || dy != dy || abs(dx) > 1e6 || abs(dy) > 1e6 {
			return true // skip NaN/huge shifts
		}
		rng := rand.New(rand.NewSource(seed))
		pts := make([]geom.Vector, 30)
		moved := make([]geom.Vector, 30)
		for i := range pts {
			pts[i] = geom.Vector{rng.NormFloat64(), rng.NormFloat64()}
			moved[i] = geom.Vector{pts[i][0] + dx, pts[i][1] + dy}
		}
		h1 := mustHull2D(t, pts)
		h2 := mustHull2D(t, moved)
		if len(h1) != len(h2) {
			return false
		}
		for i := range h1 {
			if h1[i] != h2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

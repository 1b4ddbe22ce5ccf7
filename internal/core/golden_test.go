package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"mincore/internal/data"
	"mincore/internal/geom"
	"mincore/internal/sphere"
	"mincore/internal/transform"
)

// goldenEnv, when set, makes TestSelectionMatchesParentGolden regenerate
// testdata/select_golden.json from the current code instead of checking
// against it; its value is recorded as the source commit:
//
//	MINCORE_WRITE_SELECT_GOLDEN=$(git rev-parse HEAD) go test -run TestSelectionMatchesParentGolden ./internal/core/
const goldenEnv = "MINCORE_WRITE_SELECT_GOLDEN"

const goldenPath = "testdata/select_golden.json"

type goldenSelection struct {
	Eps         float64 `json:"eps"`
	SCMC        []int   `json:"scmc"`
	DSMCRefined []int   `json:"dsmc_refined"`
	Auto        []int   `json:"auto"`
}

type goldenInput struct {
	Name       string            `json:"name"`
	OmegaBits  []uint64          `json:"omega_bits"`
	Selections []goldenSelection `json:"selections"`
}

type goldenFile struct {
	Commit string        `json:"commit"`
	Inputs []goldenInput `json:"inputs"`
}

type goldenCase struct {
	name string
	pts  []geom.Vector
	seed int64
	eps  []float64
}

func goldenCases() []goldenCase {
	var cs []goldenCase
	for s := int64(1); s <= 20; s++ {
		cs = append(cs, goldenCase{fmt.Sprintf("normal-300-d5-s%d", s), data.Normal(300, 5, s).Points, s, []float64{0.1, 0.2}})
	}
	for s := int64(1); s <= 5; s++ {
		cs = append(cs, goldenCase{fmt.Sprintf("normal-2000-d4-s%d", s), data.Normal(2000, 4, s).Points, s, []float64{0.1}})
	}
	for s := int64(1); s <= 5; s++ {
		cs = append(cs, goldenCase{fmt.Sprintf("road-2000-s%d", s), data.RoadNetwork(2000, s).Points, s, []float64{0.05}})
	}
	return cs
}

// goldenInstance prepares pts the way mincore.New does with default
// options and the given seed (dedup, fatten, 1e-9 perturbation, hull).
func goldenInstance(t *testing.T, pts []geom.Vector, seed int64) *Instance {
	t.Helper()
	pts = geom.Dedup(pts)
	_, pts, err := transform.Fatten(pts)
	if err != nil {
		t.Fatal(err)
	}
	pts = geom.Perturb(pts, 1e-9, seed+1)
	inst, err := NewInstance(pts)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// goldenSelect runs the selection stack the way the auto build does:
// SCMC and the refined DSMC on the full instance, and the smaller of the
// two as the auto pick.
func goldenSelect(t *testing.T, c goldenCase, workers int) goldenInput {
	t.Helper()
	ctx := context.Background()
	inst := goldenInstance(t, c.pts, c.seed)
	inst.Workers = workers
	in := goldenInput{Name: c.name}
	for _, u := range sphere.RandomDirections(256, inst.D, 4242) {
		in.OmegaBits = append(in.OmegaBits, math.Float64bits(inst.Omega(u)))
	}
	dg, err := inst.BuildDominanceGraphCtx(ctx, inst.BuildIPDG(0, c.seed+13))
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range c.eps {
		qs, _, err := inst.SCMCCtx(ctx, eps, SCMCOptions{Seed: c.seed})
		if err != nil {
			t.Fatal(err)
		}
		qd, err := inst.DSMCRefinedCtx(ctx, dg, eps, 8)
		if err != nil {
			t.Fatal(err)
		}
		sel := goldenSelection{Eps: eps, SCMC: qs, DSMCRefined: qd}
		sel.Auto = sel.SCMC
		if len(qd) <= len(qs) {
			sel.Auto = sel.DSMCRefined
		}
		in.Selections = append(in.Selections, sel)
	}
	return in
}

// Selections and directional maxima must match, bit for bit and at
// every worker count, what the code at the recorded commit produced.
// That commit selected on a separate instance built from the extreme
// points alone and mapped indices back; selecting on the full instance
// must give the same indices, since DSMC and SCMC only ever read the
// extreme points.
func TestSelectionMatchesParentGolden(t *testing.T) {
	if commit := os.Getenv(goldenEnv); commit != "" {
		g := goldenFile{Commit: commit}
		for _, c := range goldenCases() {
			g.Inputs = append(g.Inputs, goldenSelect(t, c, 1))
		}
		buf, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d inputs, commit %s)", goldenPath, len(g.Inputs), commit)
		return
	}
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var g goldenFile
	if err := json.Unmarshal(buf, &g); err != nil {
		t.Fatal(err)
	}
	cases := goldenCases()
	if len(g.Inputs) != len(cases) {
		t.Fatalf("golden file has %d inputs, want %d", len(g.Inputs), len(cases))
	}
	for _, workers := range []int{1, 2, 4} {
		for i, c := range cases {
			got, want := goldenSelect(t, c, workers), g.Inputs[i]
			label := fmt.Sprintf("%s workers=%d (golden from %s)", c.name, workers, g.Commit)
			if got.Name != want.Name {
				t.Fatalf("%s: golden input %d is %q", label, i, want.Name)
			}
			if fmt.Sprint(got.OmegaBits) != fmt.Sprint(want.OmegaBits) {
				t.Errorf("%s: Omega bits differ", label)
			}
			if fmt.Sprint(got.Selections) != fmt.Sprint(want.Selections) {
				t.Errorf("%s: selections\n got %v\nwant %v", label, got.Selections, want.Selections)
			}
		}
	}
}

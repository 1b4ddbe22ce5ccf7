package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mincore/internal/geom"
)

func gaussianInstance(t *testing.T, n, d int, seed int64) *Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vector, n)
	for i := range pts {
		pts[i] = geom.NewVector(d)
		for j := range pts[i] {
			pts[i][j] = rng.NormFloat64()
		}
	}
	inst, err := NewInstance(pts)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func dgEqualBitwise(t *testing.T, a, b *DominanceGraph, label string) {
	t.Helper()
	if a.Xi != b.Xi {
		t.Fatalf("%s: ξ %d vs %d", label, a.Xi, b.Xi)
	}
	if a.NumLPs != b.NumLPs || a.NumEdges != b.NumEdges {
		t.Fatalf("%s: counters (%d LPs, %d edges) vs (%d LPs, %d edges)",
			label, a.NumLPs, a.NumEdges, b.NumLPs, b.NumEdges)
	}
	for j := range a.edges {
		if len(a.edges[j]) != len(b.edges[j]) {
			t.Fatalf("%s: cell %d has %d vs %d edges", label, j, len(a.edges[j]), len(b.edges[j]))
		}
		for k := range a.edges[j] {
			ea, eb := a.edges[j][k], b.edges[j][k]
			if ea.from != eb.from || math.Float64bits(ea.weight) != math.Float64bits(eb.weight) {
				t.Fatalf("%s: cell %d edge %d: (%d, %x) vs (%d, %x)", label, j, k,
					ea.from, math.Float64bits(ea.weight), eb.from, math.Float64bits(eb.weight))
			}
		}
	}
}

// The pooled warm-started dominance-graph build must agree bitwise —
// every edge weight, every counter — with the baseline that solves each
// pair cold from a fresh problem, across warm-start on/off and worker
// counts. This is the determinism contract the speed work rides on.
func TestDGWarmMatchesBaselineBitwise(t *testing.T) {
	for _, d := range []int{2, 4} {
		inst := gaussianInstance(t, 500, d, 11)
		ipdg := inst.BuildIPDG(0, 1)
		base, err := inst.BuildDominanceGraphBaseline(ipdg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			for _, noWarm := range []bool{false, true} {
				inst.Workers = workers
				inst.DisableLPWarmStart = noWarm
				dg, err := inst.BuildDominanceGraph(ipdg)
				if err != nil {
					t.Fatal(err)
				}
				dgEqualBitwise(t, dg, base,
					fmt.Sprintf("d=%d workers=%d noWarm=%v", d, workers, noWarm))
			}
		}
		inst.Workers = 0
		inst.DisableLPWarmStart = false
	}
}

// A work instance built from a parent's extreme points must reproduce
// the parent's derived structures exactly: same ExtPts order, fatness,
// boundary vectors, and an identity X.
func TestNewInstanceFromExtremes(t *testing.T) {
	for _, d := range []int{2, 3, 5} {
		parent := gaussianInstance(t, 400, d, 23)
		work, err := NewInstanceFromExtremes(parent.ExtPts)
		if err != nil {
			t.Fatal(err)
		}
		if work.Xi() != parent.Xi() || work.N() != parent.Xi() {
			t.Fatalf("d=%d: work ξ=%d n=%d, parent ξ=%d", d, work.Xi(), work.N(), parent.Xi())
		}
		for i, id := range work.X {
			if id != i {
				t.Fatalf("d=%d: X not identity at %d: %d", d, i, id)
			}
			for dim := range work.ExtPts[i] {
				if math.Float64bits(work.ExtPts[i][dim]) != math.Float64bits(parent.ExtPts[i][dim]) {
					t.Fatalf("d=%d: ExtPts[%d] differs", d, i)
				}
			}
		}
		if math.Float64bits(work.Alpha) != math.Float64bits(parent.Alpha) {
			t.Fatalf("d=%d: α %v vs %v", d, work.Alpha, parent.Alpha)
		}
		if d == 2 {
			if len(work.BoundaryVecs) != len(parent.BoundaryVecs) {
				t.Fatalf("boundary vec count %d vs %d", len(work.BoundaryVecs), len(parent.BoundaryVecs))
			}
			for i := range work.BoundaryVecs {
				for dim := range work.BoundaryVecs[i] {
					if math.Float64bits(work.BoundaryVecs[i][dim]) != math.Float64bits(parent.BoundaryVecs[i][dim]) {
						t.Fatalf("boundary vec %d differs", i)
					}
				}
			}
		}
	}
}

// The work instance's dominance graph must be bitwise identical to the
// parent's: same extreme points in the same order means same witnesses,
// same neighbor sets, same LPs.
func TestDGOnWorkInstanceMatchesParent(t *testing.T) {
	parent := gaussianInstance(t, 500, 3, 31)
	work, err := NewInstanceFromExtremes(parent.ExtPts)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := parent.BuildDominanceGraph(parent.BuildIPDG(0, 13))
	if err != nil {
		t.Fatal(err)
	}
	wd, err := work.BuildDominanceGraph(work.BuildIPDG(0, 13))
	if err != nil {
		t.Fatal(err)
	}
	dgEqualBitwise(t, wd, pd, "work vs parent")
}

// SCMC restricted to extreme candidates: the cover it returns on the
// work instance, mapped through the parent's X, must equal the cover
// computed on the parent directly — index for index.
func TestSCMCWorkInstanceMatchesParent(t *testing.T) {
	for _, d := range []int{3, 4} {
		parent := gaussianInstance(t, 600, d, 41)
		work, err := NewInstanceFromExtremes(parent.ExtPts)
		if err != nil {
			t.Fatal(err)
		}
		opts := SCMCOptions{Seed: 5}
		pq, pm, err := parent.SCMCCtx(context.Background(), 0.1, opts)
		if err != nil {
			t.Fatal(err)
		}
		wq, wm, err := work.SCMCCtx(context.Background(), 0.1, opts)
		if err != nil {
			t.Fatal(err)
		}
		if pm != wm || len(pq) != len(wq) {
			t.Fatalf("d=%d: (m=%d, |Q|=%d) vs (m=%d, |Q|=%d)", d, pm, len(pq), wm, len(wq))
		}
		for i := range wq {
			if parent.X[wq[i]] != pq[i] {
				t.Fatalf("d=%d: index %d remaps to %d, parent chose %d", d, i, parent.X[wq[i]], pq[i])
			}
		}
		// Every selected index must be an extreme point.
		ext := make(map[int]bool, parent.Xi())
		for _, id := range parent.X {
			ext[id] = true
		}
		for _, id := range pq {
			if !ext[id] {
				t.Fatalf("d=%d: SCMC selected non-extreme point %d", d, id)
			}
		}
	}
}

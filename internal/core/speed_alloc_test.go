//go:build !race

package core

import (
	"context"
	"testing"

	"mincore/internal/sphere"
)

// Allocation-regression gate on the dominance-graph edge-LP loop: the
// pooled per-worker solvers and per-cell problems keep the build at a
// handful of allocations per CELL (currently ~70, dominated by the
// witness directions and per-cell problem setup), where the pre-pooling
// code paid hundreds per PAIR (~840 per cell, ~219k per build on this
// instance). The ceiling is set with headroom above the per-cell cost
// but far below any per-pair regression, which would blow past it by an
// order of magnitude. Excluded under the race detector, whose
// instrumentation inflates allocation counts.
func TestEdgeLPAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate builds a ξ≈260 instance")
	}
	inst := gaussianInstance(t, 5000, 5, 7)
	ipdg := inst.BuildIPDG(0, 1)
	inst.Workers = 1
	avg := testing.AllocsPerRun(3, func() {
		if _, err := inst.BuildDominanceGraph(ipdg); err != nil {
			t.Fatal(err)
		}
	})
	xi := inst.Xi()
	ceiling := float64(120*xi + 2000)
	if avg > ceiling {
		t.Fatalf("DG build allocates %.0f objects (ξ=%d, %.1f/cell), ceiling %.0f — the allocation diet regressed",
			avg, xi, avg/float64(xi), ceiling)
	}
}

// Allocation gate on the flat extreme-point kernel: Omega and ExtremeAt
// run once per sampled direction in every loss screen and DG witness
// pass, so they must not allocate; SCMC's fused ω/threshold pass
// allocates, per direction block, a few shared slices and per-worker
// scratch beyond the per-direction hit lists, never per direction.
func TestOmegaAllocs(t *testing.T) {
	inst := gaussianInstance(t, 2000, 5, 3)
	dirs := sphere.RandomDirections(512, inst.D, 9)
	u := dirs[0]
	if a := testing.AllocsPerRun(100, func() { inst.Omega(u) }); a != 0 {
		t.Fatalf("Omega allocates %.1f objects per call, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { inst.ExtremeAt(u) }); a != 0 {
		t.Fatalf("ExtremeAt allocates %.1f objects per call, want 0", a)
	}
	for _, workers := range []int{1, 2, 4} {
		inst.Workers = workers
		hits, _, err := inst.scmcHits(context.Background(), dirs, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		hitSlices := 0
		for _, h := range hits {
			if len(h) > 0 {
				hitSlices++
			}
		}
		avg := testing.AllocsPerRun(5, func() {
			if _, _, err := inst.scmcHits(context.Background(), dirs, 0.05); err != nil {
				t.Fatal(err)
			}
		})
		extra, ceiling := avg-float64(hitSlices), float64(2*workers+8)
		t.Logf("workers=%d: %.0f allocations beyond %d hit lists (ceiling %.0f)", workers, extra, hitSlices, ceiling)
		if extra > ceiling {
			t.Fatalf("workers=%d: scmcHits allocates %.0f objects beyond its %d hit lists, ceiling %.0f",
				workers, extra, hitSlices, ceiling)
		}
	}
}

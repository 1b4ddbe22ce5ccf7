//go:build !race

package mincore

import (
	"testing"

	"mincore/internal/data"
)

// Allocation-regression gate for New: the points travel through every
// preprocessing stage (copy, dedupe, normalize, perturb, hull) as one
// contiguous block per stage, so a call on the RoadNetwork input
// (n=10000) must stay within 50·ξ + 1000 allocations — the Clarkson
// pass's own 50·ξ + 500 budget plus O(1) per stage. The gate is excluded
// under the race detector, whose instrumentation inflates allocation
// counts.
func TestNewAllocs(t *testing.T) {
	pts := asPoints(data.RoadNetwork(10000, 1).Points)
	cs, err := New(pts, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	xi := cs.NumExtreme()
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := New(pts, WithSeed(1)); err != nil {
			t.Fatal(err)
		}
	})
	if budget := float64(50*xi + 1000); allocs > budget {
		t.Fatalf("New allocates %.0f objects at ξ=%d, budget %.0f", allocs, xi, budget)
	}
	t.Logf("%.0f allocations at ξ=%d", allocs, xi)
}

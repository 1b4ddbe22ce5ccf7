//go:build !race

package hull

import (
	"testing"

	"mincore/internal/data"
)

// Allocation-regression gate for the Clarkson pass: the retained
// containment LP is rebuilt only when the vertex set grows and the
// interior filter allocates nothing per point, so one call on the
// RoadNetwork input (n=10000) must stay within 50·ξ + 500 allocations.
// The gate is excluded under the race detector, whose instrumentation
// inflates allocation counts.
func TestClarksonAllocs(t *testing.T) {
	pts := prepareLikeNew(t, data.RoadNetwork(10000, 1).Points, 1)
	xi := len(mustExtremePoints(t, pts))
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := ExtremePoints(pts); err != nil {
			t.Fatal(err)
		}
	})
	if budget := float64(50*xi + 500); allocs > budget {
		t.Fatalf("ExtremePoints allocates %.0f objects at ξ=%d, budget %.0f", allocs, xi, budget)
	}
	t.Logf("%.0f allocations at ξ=%d", allocs, xi)
}

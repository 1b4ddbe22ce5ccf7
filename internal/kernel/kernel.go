// Package kernel implements ε-kernel constructions: the ANN-based
// algorithm of Yu et al. [45] (the "ANN" baseline in the paper's
// experiments) and the plain direction-grid construction of Agarwal et
// al. [1] as an ablation. Both produce coresets of the worst-case-optimal
// size O(1/ε^{(d-1)/2}) with no minimality guarantee — exactly the gap
// the MC algorithms close.
package kernel

import (
	"fmt"
	"math"

	"mincore/internal/geom"
	"mincore/internal/mips"
	"mincore/internal/sphere"
)

// Options tunes the kernel constructions. Zero values pick defaults
// matching the parameter settings described for the baseline in [3].
type Options struct {
	// C multiplies the number of grid directions (default 1).
	C float64
	// Alpha is the fatness of the input point set, which scales the
	// required grid resolution (0 assumes 0.25, the regime
	// transform.Fatten delivers on typical data; pass the measured value
	// for elongated datasets).
	Alpha float64
	// ANNEps is the (1+ε) slack of the approximate nearest-neighbor
	// queries (0 selects the default 0.01).
	ANNEps float64
	Seed   int64
}

func (o *Options) defaults() {
	if o.C == 0 {
		o.C = 1
	}
	if o.Alpha == 0 {
		o.Alpha = 0.25
	}
	if o.ANNEps == 0 {
		o.ANNEps = 0.01
	}
}

// GridSize returns the number of grid directions at the given ε and
// dimension. Dudley's bound needs grid covering radius β with
// R·β²/2 ≤ ε·α (R = 2√d+1 the enclosing-sphere radius), i.e.
// β = √(2εα/R); m directions cover S^{d-1} with radius ≈ c_d·m^{-1/(d-1)},
// giving m = O((1/(εα))^{(d-1)/2}) — the O(1/ε^{(d-1)/2}) sample
// complexity of the construction.
func GridSize(eps float64, d int, opts Options) int {
	opts.defaults()
	beta := math.Sqrt(2 * eps * opts.Alpha / (2*math.Sqrt(float64(d)) + 1))
	var m float64
	if d == 2 {
		// Evenly spaced directions on S¹: covering radius π/m.
		m = math.Pi / beta
	} else {
		m = math.Pow(3/beta, float64(d-1))
	}
	m *= opts.C
	if m < 8 {
		m = 8
	}
	// Cap the grid: beyond this the construction is the regime the paper
	// reports as infeasible for ANN (small ε, high d); the kernel is then
	// under-resolved and its measured loss may exceed ε, which the
	// experiment tables report honestly in their loss column.
	const cap = 1 << 18
	if m > cap {
		m = cap
	}
	return int(math.Ceil(m))
}

// ANN builds an ε-kernel coreset by Dudley's construction as implemented
// in [45]: grid points are placed on a sphere of radius R = 2√d + 1
// enclosing the (fat, [−1,1]^d) point set with margin; for each grid
// point the (approximate) nearest data point is selected. The curvature
// of the enclosing sphere makes a grid of spacing O(√ε) — i.e.
// O(1/ε^{(d-1)/2}) points — sufficient for a relative-error guarantee on
// fat sets, which is why the construction beats the naive
// direction-argmax grid that needs O(1/ε^{d-1}) directions.
//
// Returns indices into pts. The input must be fat in [−1,1]^d.
func ANN(pts []geom.Vector, eps float64, opts Options) ([]int, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("kernel: empty point set")
	}
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("kernel: ANN requires ε ∈ (0,1), got %g", eps)
	}
	opts.defaults()
	d := pts[0].Dim()
	m := GridSize(eps, d, opts)
	dirs := sphere.GridDirections(m, d, opts.Seed)
	radius := 2*math.Sqrt(float64(d)) + 1

	tree := mips.NewKDTree(pts)
	seen := make(map[int]bool)
	var out []int
	for _, u := range dirs {
		q := u.Scale(radius)
		i, _ := tree.NearestNeighbor(q, opts.ANNEps)
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out, nil
}

// DirectionGrid is the plain construction of Agarwal et al. [1]: the
// exact extreme point of each of m grid directions. With m =
// O(1/ε'^{d-1}) directions of angular radius ε' = O(αε) this is also a
// valid ε-coreset; it serves as an ablation against ANN's
// curvature-accelerated grid.
func DirectionGrid(pts []geom.Vector, m int, seed int64) ([]int, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("kernel: empty point set")
	}
	if m < 1 {
		return nil, fmt.Errorf("kernel: need ≥ 1 direction")
	}
	d := pts[0].Dim()
	dirs := sphere.GridDirections(m, d, seed)
	idx := make([]int, len(dirs))
	geom.NewRows(pts).MaxDots(dirs, idx, make([]float64, len(dirs)))
	seen := make(map[int]bool)
	var out []int
	for _, i := range idx {
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out, nil
}

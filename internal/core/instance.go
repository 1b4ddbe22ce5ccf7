// Package core implements the paper's contribution: algorithms for the
// Minimum ε-Coreset (MC) problem for maxima representation.
//
//   - OptMC (Algorithm 1): the optimal polynomial-time algorithm in R²,
//     via candidate selection, an overlap graph, and shortest directed
//     cycle.
//   - DSMC (Algorithms 2–3): the dominance-graph approximation in any
//     fixed dimension, with LP edge weights (Eq. 2) and greedy dominating
//     set.
//   - SCMC (Algorithm 4): the δ-net set-cover approximation with the
//     iterative sample-doubling strategy of Appendix A.
//   - ANNKernel: the ε-kernel baseline of Yu et al. [45] ("ANN" in the
//     paper's experiments), in internal/kernel, glued here for loss
//     validation.
//
// All algorithms assume the instance is α-fat in [−1,1]^d (Section 2);
// use internal/transform.Fatten on raw data first. The package also
// provides exact and sampled evaluation of the loss l(Q,P) and the dual
// (size-budgeted) problem via binary search.
package core

import (
	"fmt"
	"sort"
	"sync"

	"mincore/internal/geom"
	"mincore/internal/hull"
	"mincore/internal/transform"
	"mincore/internal/voronoi"
)

// Instance is a preprocessed MC problem instance: the (α-fat) point set
// together with its extreme points and derived structures shared by all
// algorithms. Build once with NewInstance and reuse across ε values, as
// the paper's experiments do.
type Instance struct {
	Pts []geom.Vector // the full point set P (assumed α-fat in [−1,1]^d)
	D   int           // dimensionality

	X      []int         // extreme point indices into Pts (CCW order for d=2)
	ExtPts []geom.Vector // Pts[X[i]]

	Alpha float64 // empirical fatness (transform.EmpiricalFatness)

	// Workers is the degree of parallelism for the parallel hot paths
	// (dominance-graph construction, loss evaluation, SCMC's set-system
	// construction): 0 selects GOMAXPROCS, 1 forces sequential execution.
	// Set it before sharing the instance across goroutines; outputs are
	// bitwise identical for every value.
	Workers int

	// DisableLPWarmStart forces every dominance-graph edge LP to solve
	// cold instead of warm-starting from the previous pair's basis.
	// Outputs are bitwise identical either way (see lp.Solver); the
	// switch exists for determinism tests and benchmarks.
	DisableLPWarmStart bool

	// 2D-only caches (nil in higher dimensions).
	BoundaryVecs []geom.Vector // u*_i between consecutive extreme points

	// ext holds ExtPts as one row-major block: every ω(P,u), argmax and
	// γ-threshold query is a flat scan over it (geom.Rows).
	ext geom.Rows

	// Dominance-graph substrate memo: the witness directions and the
	// warm-start scan tour are pure deterministic functions of the
	// extreme points (fixed sample seed, greedy tour), so repeated
	// builds on one instance share them. See dgSubstrate.
	dgOnce      sync.Once
	dgWitnesses [][]geom.Vector
	dgTour      []int
}

// NewInstance preprocesses pts: extracts extreme points (Clarkson / hulls),
// measures fatness, and lays the extreme points out for directional
// queries. pts must already be α-fat in [−1,1]^d; it is retained, not
// copied.
func NewInstance(pts []geom.Vector) (*Instance, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("core: empty point set")
	}
	d := pts[0].Dim()
	inst := &Instance{Pts: pts, D: d}

	var err error
	inst.X, err = hull.ExtremePoints(pts)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if d == 2 {
		// Hull2D yields CCW order starting from the lexicographic minimum;
		// re-sort by polar angle as Algorithm 1 expects (valid because the
		// set is fat, i.e. the origin is interior).
		inst.X, err = hull.SortCCWByAngle(pts, inst.X)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	inst.ExtPts = make([]geom.Vector, len(inst.X))
	for i, id := range inst.X {
		inst.ExtPts[i] = pts[id]
	}
	inst.ext = geom.NewRows(inst.ExtPts)
	inst.Alpha = transform.EmpiricalFatness(inst.ext, 1024, 1)
	if inst.Alpha <= 0 {
		return nil, fmt.Errorf("core: point set is not fat (α=%g ≤ 0); apply transform.Fatten first", inst.Alpha)
	}
	if d == 2 {
		bv, err := voronoi.BoundaryVectors2D(inst.ExtPts)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		inst.BoundaryVecs = bv
	}
	return inst, nil
}

// NewInstanceFromExtremes builds an instance over a point set that is
// already known to consist solely of extreme points in canonical order —
// the ExtPts of a previously built instance (CCW-sorted for d=2). It
// skips hull enumeration entirely: X is the identity and the point set
// is its own extreme-point block, and every derived structure (ExtPts
// order, fatness, boundary vectors) is bitwise identical to the
// parent's. The library no longer uses it; it is kept for perfbench's
// traced replay.
func NewInstanceFromExtremes(extPts []geom.Vector) (*Instance, error) {
	if len(extPts) == 0 {
		return nil, fmt.Errorf("core: empty point set")
	}
	d := extPts[0].Dim()
	inst := &Instance{Pts: extPts, D: d}
	inst.X = make([]int, len(extPts))
	for i := range inst.X {
		inst.X[i] = i
	}
	inst.ExtPts = extPts
	inst.ext = geom.NewRows(extPts)
	inst.Alpha = transform.EmpiricalFatness(inst.ext, 1024, 1)
	if inst.Alpha <= 0 {
		return nil, fmt.Errorf("core: point set is not fat (α=%g ≤ 0); apply transform.Fatten first", inst.Alpha)
	}
	if d == 2 {
		bv, err := voronoi.BoundaryVectors2D(inst.ExtPts)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		inst.BoundaryVecs = bv
	}
	return inst, nil
}

// N returns |P|.
func (inst *Instance) N() int { return len(inst.Pts) }

// Xi returns ξ = |X|, the number of extreme points.
func (inst *Instance) Xi() int { return len(inst.X) }

// Omega returns ω(P,u) = max_{p∈P} ⟨p,u⟩, evaluated over the extreme
// points (which realize every directional maximum).
func (inst *Instance) Omega(u geom.Vector) float64 {
	_, w := inst.ext.MaxDot(u)
	return w
}

// ExtremeAt returns the index (into Pts) of the extreme point for u,
// ties to the smaller extreme-point index.
func (inst *Instance) ExtremeAt(u geom.Vector) int {
	i, _ := inst.ext.MaxDot(u)
	return inst.X[i]
}

// rowsOf gathers the points with the given indices into a row-major
// block, in the given order.
func (inst *Instance) rowsOf(ids []int) geom.Rows {
	r := geom.Rows{R: make([]float64, 0, len(ids)*inst.D), D: inst.D}
	for _, id := range ids {
		r.R = append(r.R, inst.Pts[id]...)
	}
	return r
}

// sortedByAngle returns the given point indices sorted CCW by polar angle
// (2D helper).
func (inst *Instance) sortedByAngle(ids []int) []int {
	out := append([]int(nil), ids...)
	sort.Slice(out, func(a, b int) bool {
		return geom.Theta(inst.Pts[out[a]]) < geom.Theta(inst.Pts[out[b]])
	})
	return out
}

package hull

import (
	"fmt"

	"mincore/internal/geom"
	"mincore/internal/lp"
	"mincore/internal/sphere"
)

// Clarkson's output-sensitive extreme-point algorithm: maintain a set S of
// confirmed hull vertices; for each point p test p ∈ conv(S). If inside, p
// is not a vertex. If outside, a separating direction u is produced and
// the support point argmax_{q∈P}⟨q,u⟩ — a guaranteed vertex — is added to
// S; the test for p repeats. Total work is O(n) containment tests plus ξ
// support scans, where ξ is the number of extreme points.
//
// Every support scan runs over one flat row-major copy of the points
// (geom.Rows), built once per call. S is seeded with the support points
// of the 2d axis directions and a random direction sample; those scans
// run as one blocked pass over the directions (Rows.MaxDots), four
// directions per sweep of the points. Each later separating direction is
// one Rows.MaxDot scan. Ties go to the smallest index, exactly as
// geom.MaxDot breaks them, so the vertices are confirmed in the same
// order whichever scan answers.
//
// A barycentric test against an inscribed simplex of S (O(d²)) discards
// deep-interior points first. Every other point goes to one containment
// LP over the columns of S, retained while S is unchanged: only the d
// coordinate right-hand sides move from point to point, so the pooled
// lp.Solver re-solves warm. When p lies in the basis simplex of the
// previous point's solution, that is a zero-pivot O(d²) barycentric check;
// otherwise a few dual-simplex pivots move to a neighbouring simplex. An
// infeasible LP falls back to the cold two-phase solve, whose Farkas
// certificate supplies the separating direction. The LP is rebuilt only
// when S grows, i.e. O(ξ) times.

const (
	// clarksonTol is the geometric slack under which a point counts as
	// inside the hull: points within it of the boundary may be classified
	// either way.
	clarksonTol = 1e-9
	// warmDirections is the number of random support directions used to
	// seed the confirmed-vertex set.
	warmDirections = 128
)

// ExtremePoints returns the indices of the vertices of conv(pts), i.e. the
// set X of extreme points of Section 4 of the paper: points p for which
// the Voronoi cell R(p) is non-empty. For d ≥ 3 the result is unordered
// (in a deterministic confirmation order); for d = 2 it is in
// counterclockwise hull order. Mixed-dimension or non-finite input
// returns ErrBadInput.
//
// The input should be in general position (use geom.Perturb on degenerate
// data); exact duplicates are handled, but collinear/coplanar boundary
// points may be classified arbitrarily within tolerance.
func ExtremePoints(pts []geom.Vector) ([]int, error) {
	if len(pts) == 0 {
		return nil, nil
	}
	d := pts[0].Dim()
	if d < 1 {
		return nil, fmt.Errorf("%w: zero-dimensional points", ErrBadInput)
	}
	if err := checkDim(pts, d); err != nil {
		return nil, err
	}
	switch {
	case d == 1:
		return extreme1D(pts), nil
	case d == 2:
		return Hull2D(pts)
	default:
		return clarkson(pts, false), nil
	}
}

func extreme1D(pts []geom.Vector) []int {
	lo, _ := geom.MinDot(pts, geom.Vector{1})
	hi, _ := geom.MaxDot(pts, geom.Vector{1})
	if lo == hi {
		return []int{lo}
	}
	return []int{lo, hi}
}

// clarkson runs the extreme-point loop for d ≥ 3. noWarm forces every
// containment solve onto the cold two-phase path; the result is identical
// either way, and the switch exists for the determinism tests.
func clarkson(pts []geom.Vector, noWarm bool) []int {
	d := pts[0].Dim()

	inS := make([]bool, len(pts))
	var sIdx []int
	var sPts []geom.Vector
	add := func(i int) {
		if !inS[i] {
			inS[i] = true
			sIdx = append(sIdx, i)
			sPts = append(sPts, pts[i])
		}
	}

	// Warm start: support points of the axis directions and a random
	// direction sample are vertices (ties broken by scan order are still
	// vertices under general position). The 2d+warmDirections support
	// scans run blocked, four directions per pass over the points.
	rows := geom.NewRows(pts)
	dirs := append(geom.AxisDirections(d), sphere.RandomDirections(warmDirections, d, 1)...)
	support, supportVal := make([]int, len(dirs)), make([]float64, len(dirs))
	rows.MaxDots(dirs, support, supportVal)
	for _, j := range support {
		add(j)
	}

	// Interior-simplex filter: d+1 spread vertices. Build from the first
	// axis maxima plus the point farthest from their centroid.
	st := buildInteriorSimplex(sPts)

	c := containmentLP{solver: lp.Solver{NoWarm: noWarm, ValueOnly: true}}
	for i := range pts {
		if inS[i] {
			continue
		}
		p := pts[i]
		if st != nil && st.contains(p, -1e-9) {
			continue // strictly inside an inscribed simplex → not a vertex
		}
		for {
			u := c.separate(p, sPts)
			if u == nil {
				break
			}
			// Outside: the support point in direction u is a vertex.
			j, supv := rows.MaxDot(u)
			if j == i || supv <= geom.Dot(p, u)+clarksonTol {
				// p itself is (tied for) the support point → p is extreme.
				add(i)
				break
			}
			if inS[j] {
				// The support point is already confirmed, yet the test
				// said "outside": p is within tolerance of the boundary.
				// Classify as non-extreme and move on.
				break
			}
			add(j)
		}
	}
	return sIdx
}

// containmentLP decides p ∈ conv(S) with one LP per vertex set S: find
// λ ≥ 0 with Σλ_j s_j = p and Σλ_j = 1. The problem is retained while S
// is unchanged and only its d coordinate right-hand sides are reset per
// query, so the solver warm-starts from the previous point's basis.
type containmentLP struct {
	solver lp.Solver
	prob   *lp.Problem
	cols   int // |S| prob was built for
}

// separate returns nil if p ∈ conv(s), or a unit direction u with
// ⟨p,u⟩ > max_{q∈s}⟨q,u⟩ + clarksonTol, verified exactly against s. s
// only ever grows by appending, so its length identifies it.
func (c *containmentLP) separate(p geom.Vector, s []geom.Vector) geom.Vector {
	d := p.Dim()
	if c.prob == nil || c.cols != len(s) {
		c.build(p, s)
	} else {
		for dim := 0; dim < d; dim++ {
			c.prob.SetConstraintRHS(dim, p[dim])
		}
	}
	sol := c.solver.Solve(c.prob)
	if sol.Status != lp.Infeasible {
		// Optimal means inside. On solver distress, conservative
		// "inside" would drop a potential vertex; conservative "outside"
		// could loop. Treat as inside (the validation loss checks
		// downstream catch real misses).
		return nil
	}
	// The first d components of the Farkas certificate separate p from
	// conv(s).
	u := geom.Vector(sol.Farkas[:d])
	if n := u.Norm(); n > 0 {
		u = u.Scale(1 / n)
	} else {
		// Degenerate certificate; fall back to the direct direction.
		u, _ = geom.Sub(p, geom.Centroid(s)).Normalize()
	}
	// Confirm the separation exactly; if it does not hold within
	// tolerance, p is boundary-grade and treated as inside.
	if _, smax := geom.MaxDot(s, u); geom.Dot(p, u) > smax+clarksonTol {
		return u
	}
	return nil
}

// build replaces the retained problem with the containment LP over s at
// right-hand side p.
func (c *containmentLP) build(p geom.Vector, s []geom.Vector) {
	prob := lp.NewProblem(len(s))
	for j := range s {
		prob.SetNonNegative(j)
	}
	row := make([]float64, len(s))
	for dim := range p {
		for j, q := range s {
			row[j] = q[dim]
		}
		prob.AddEQ(row, p[dim])
	}
	for j := range row {
		row[j] = 1
	}
	prob.AddEQ(row, 1)
	c.prob, c.cols = prob, len(s)
}

// buildInteriorSimplex picks d+1 affinely independent confirmed vertices
// and returns a tester for their simplex, or nil if none could be built.
func buildInteriorSimplex(s []geom.Vector) *simplexTester {
	if len(s) == 0 {
		return nil
	}
	d := s[0].Dim()
	if len(s) < d+1 {
		return nil
	}
	// Greedy: start from the first vertex, repeatedly take the vertex
	// maximizing distance from the affine span of those chosen so far.
	chosen := []geom.Vector{s[0]}
	var basis []geom.Vector
	w := make(geom.Vector, d)
	// residual writes into w the component of cand − chosen[0]
	// orthogonal to the basis, rounding each product before its
	// subtraction as geom.Sub(w, b.Scale(t)) does, and returns its norm.
	residual := func(cand geom.Vector) float64 {
		for k := range w {
			w[k] = cand[k] - chosen[0][k]
		}
		for _, b := range basis {
			t := geom.Dot(w, b)
			for k := range w {
				w[k] -= float64(b[k] * t)
			}
		}
		return w.Norm()
	}
	for len(chosen) < d+1 {
		bestJ, bestD := -1, 0.0
		for j, cand := range s {
			if dist := residual(cand); dist > bestD {
				bestD, bestJ = dist, j
			}
		}
		if bestJ < 0 || bestD < 1e-9 {
			return nil // points are not full-dimensional
		}
		norm := residual(s[bestJ])
		basis = append(basis, w.Scale(1/norm))
		chosen = append(chosen, s[bestJ])
	}
	st := newSimplexTester(chosen)
	if !st.ok {
		return nil
	}
	return st
}

// simplexTester reports whether p lies in the simplex spanned by d+1
// vertices, within tolerance on the barycentric coordinates. ok=false
// when the simplex is degenerate. This is the cheap O(d²)-per-query
// interior filter applied before the containment LP.
type simplexTester struct {
	inv *geom.Matrix // inverse of the (d+1)×(d+1) homogeneous vertex matrix
	d   int
	ok  bool
}

func newSimplexTester(vertices []geom.Vector) *simplexTester {
	if len(vertices) == 0 {
		return &simplexTester{ok: false}
	}
	d := vertices[0].Dim()
	if len(vertices) != d+1 {
		return &simplexTester{ok: false}
	}
	m := geom.NewMatrix(d+1, d+1)
	for j, v := range vertices {
		for i := 0; i < d; i++ {
			m.Set(i, j, v[i])
		}
		m.Set(d, j, 1)
	}
	inv, ok := m.Invert()
	return &simplexTester{inv: inv, d: d, ok: ok}
}

// contains reports whether p is inside the simplex with barycentric slack
// tol (tol < 0 shrinks the simplex, guaranteeing strict interiority). The
// barycentric coordinates are inv·(p,1), accumulated row by row in place.
func (st *simplexTester) contains(p geom.Vector, tol float64) bool {
	if !st.ok {
		return false
	}
	for i := 0; i <= st.d; i++ {
		row := st.inv.Row(i)
		var l float64
		for j, x := range p {
			l += row[j] * x
		}
		if l+row[st.d] < -tol {
			return false
		}
	}
	return true
}

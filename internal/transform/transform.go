// Package transform implements the α-fat normalization assumed throughout
// the paper (Section 2): an affine map taking an arbitrary
// full-dimensional point set to one contained in [−1,1]^d whose maxima
// ω(P,u) are positive in every direction, with bounded ratio between the
// smallest and largest maximum.
//
// The construction follows Agarwal, Har-Peled, and Varadarajan [1]: an
// approximate minimum bounding box is found by recursively taking
// far-point ("approximate diameter") directions and projecting onto the
// orthogonal complement; the box is mapped to [−1,1]^d and the origin is
// re-centered at the mean of the 2d axis-extreme points, a hull-interior
// point. The theoretical α_d of [1] is a worst-case constant; this
// package additionally measures the empirical fatness, which downstream
// algorithms (SCMC's net radius) consume directly.
package transform

import (
	"fmt"
	"math"

	"mincore/internal/geom"
	"mincore/internal/sphere"
)

// Affine is the invertible map y = S⁻¹·Bᵀ·(x − c): rotate into the
// orthonormal basis B (rows), translate by the center c, and scale each
// axis by 1/S_i.
type Affine struct {
	Basis  []geom.Vector // d orthonormal rows
	Center geom.Vector
	Scale  geom.Vector // per-axis half-extents (all > 0)
}

// Apply maps a point into normalized coordinates.
func (a *Affine) Apply(p geom.Vector) geom.Vector {
	y := geom.NewVector(len(a.Basis))
	a.applyTo(y, make(geom.Vector, len(p)), p)
	return y
}

// applyTo writes the image of p into y, using q as scratch for p − c.
func (a *Affine) applyTo(y, q, p geom.Vector) {
	for k := range q {
		q[k] = p[k] - a.Center[k]
	}
	for i, b := range a.Basis {
		y[i] = geom.Dot(q, b) / a.Scale[i]
	}
}

// ApplyAll maps every point. The images share one backing array (see
// geom.NewBlock).
func (a *Affine) ApplyAll(pts []geom.Vector) []geom.Vector {
	out := geom.NewBlock(len(pts), len(a.Basis))
	if len(pts) == 0 {
		return out
	}
	q := make(geom.Vector, len(pts[0]))
	for i, p := range pts {
		a.applyTo(out[i], q, p)
	}
	return out
}

// Invert maps a normalized point back to original coordinates.
func (a *Affine) Invert(y geom.Vector) geom.Vector {
	p := a.Center.Clone()
	for i, b := range a.Basis {
		p = geom.Add(p, b.Scale(y[i]*a.Scale[i]))
	}
	return p
}

// Fatten computes the normalizing transform for pts and returns it along
// with the transformed point set, which lies in [−1,1]^d (within floating
// tolerance) and has ω(P,u) > 0 for every direction provided the input is
// full-dimensional. Lower-dimensional inputs degrade gracefully: axes
// with no extent are given unit scale, and fatness in those directions is
// zero (callers should check EmpiricalFatness).
func Fatten(pts []geom.Vector) (*Affine, []geom.Vector, error) {
	if len(pts) == 0 {
		return nil, nil, fmt.Errorf("transform: empty point set")
	}
	d := pts[0].Dim()
	basis := farPointBasis(pts)
	if len(basis) < d {
		basis = geom.CompleteBasis(d, basis)
	}

	// Pass 1: extents along the basis → box center and scale.
	center, scale := boxOf(pts, basis)
	aff := &Affine{Basis: basis, Center: center, Scale: scale}

	// Pass 2: re-center at the mean of the 2d axis-extreme points (an
	// interior point of the hull), then rescale to restore [−1,1]^d.
	inner := geom.Centroid(aff.axisExtremes(pts))
	// Compose: new center in original coordinates, recompute extents.
	center2 := aff.Invert(inner)
	aff2 := &Affine{Basis: basis, Center: center2, Scale: scale}
	_, scale2 := boxOfCentered(pts, basis, center2)
	aff2.Scale = scale2
	return aff2, aff2.ApplyAll(pts), nil
}

// axisExtremes returns the images of the points maximizing ⟨a(p), +e_i⟩
// and ⟨a(p), −e_i⟩ for i = 0…d−1, in that order, ties to the first
// point. It maps one point at a time instead of keeping the mapped set:
// ⟨y, ±e_i⟩ orders points exactly as ±y_i does.
func (a *Affine) axisExtremes(pts []geom.Vector) []geom.Vector {
	d := len(a.Basis)
	y, q := make(geom.Vector, d), make(geom.Vector, len(pts[0]))
	hi, lo := make([]int, d), make([]int, d)
	hiV, loV := make([]float64, d), make([]float64, d)
	for j, p := range pts {
		a.applyTo(y, q, p)
		for i, v := range y {
			if j == 0 || v > hiV[i] {
				hi[i], hiV[i] = j, v
			}
			if j == 0 || v < loV[i] {
				lo[i], loV[i] = j, v
			}
		}
	}
	anchors := make([]geom.Vector, 0, 2*d)
	for i := range hi {
		anchors = append(anchors, a.Apply(pts[hi[i]]), a.Apply(pts[lo[i]]))
	}
	return anchors
}

// farPointBasis builds an orthonormal basis from recursive approximate
// diameter directions: the farthest-point pair gives the first axis; the
// points are projected onto the orthogonal complement and the step
// repeats.
func farPointBasis(pts []geom.Vector) []geom.Vector {
	d := pts[0].Dim()
	work := geom.NewRows(pts) // projected in place
	diff := make(geom.Vector, d)
	var basis []geom.Vector
	for len(basis) < d {
		// Approximate diameter of the projected set: farthest from row 0,
		// then farthest from that.
		a := farthestFrom(work, work.Row(0), diff)
		b := farthestFrom(work, work.Row(a), diff)
		dir := geom.Sub(work.Row(b), work.Row(a))
		n := dir.Norm()
		if n < 1e-12 {
			break // remaining extent is zero
		}
		u := dir.Scale(1 / n)
		// Re-orthogonalize against previous axes for numerical hygiene.
		for _, bb := range basis {
			u = geom.Sub(u, bb.Scale(geom.Dot(u, bb)))
		}
		un, ok := u.Normalize()
		if !ok {
			break
		}
		basis = append(basis, un)
		// Project out un in place: w − un·⟨w,un⟩, rounding the product
		// before the subtraction exactly as geom.Sub(w, un.Scale(t)) does.
		for i := 0; i < work.Len(); i++ {
			w := work.Row(i)
			t := geom.Dot(w, un)
			for k := range w {
				w[k] -= float64(un[k] * t)
			}
		}
	}
	return basis
}

// farthestFrom returns the index of the row farthest from q, using diff
// as scratch for p − q.
func farthestFrom(pts geom.Rows, q, diff geom.Vector) int {
	best, bestD := 0, -1.0
	for i := 0; i < pts.Len(); i++ {
		p := pts.Row(i)
		for k := range diff {
			diff[k] = p[k] - q[k]
		}
		if dd := diff.Norm(); dd > bestD {
			best, bestD = i, dd
		}
	}
	return best
}

// boxOf returns the center and half-extents of pts along the basis.
func boxOf(pts []geom.Vector, basis []geom.Vector) (geom.Vector, geom.Vector) {
	d := len(basis)
	lo := make(geom.Vector, d)
	hi := make(geom.Vector, d)
	for i := range lo {
		lo[i], hi[i] = math.Inf(1), math.Inf(-1)
	}
	for _, p := range pts {
		for i, b := range basis {
			v := geom.Dot(p, b)
			if v < lo[i] {
				lo[i] = v
			}
			if v > hi[i] {
				hi[i] = v
			}
		}
	}
	center := geom.NewVector(pts[0].Dim())
	scale := geom.NewVector(d)
	for i, b := range basis {
		mid := (lo[i] + hi[i]) / 2
		center = geom.Add(center, b.Scale(mid))
		scale[i] = (hi[i] - lo[i]) / 2
		if scale[i] < 1e-12 {
			scale[i] = 1
		}
	}
	return center, scale
}

// boxOfCentered returns half-extents of pts along the basis measured from
// the given center: scale_i = max |⟨p − c, b_i⟩|, so the mapped set fits
// [−1,1]^d with the center at the origin.
func boxOfCentered(pts []geom.Vector, basis []geom.Vector, c geom.Vector) (geom.Vector, geom.Vector) {
	d := len(basis)
	scale := geom.NewVector(d)
	q := make(geom.Vector, len(c))
	for _, p := range pts {
		for k := range q {
			q[k] = p[k] - c[k]
		}
		for i, b := range basis {
			if v := math.Abs(geom.Dot(q, b)); v > scale[i] {
				scale[i] = v
			}
		}
	}
	for i := range scale {
		if scale[i] < 1e-12 {
			scale[i] = 1
		}
	}
	return c, scale
}

// EmpiricalFatness estimates α = min_u ω(P,u) / max_u ω(P,u) over k
// sampled directions (plus the 2d axis directions), for the points held
// in one row-major block. A nonpositive return means the origin is
// outside (or on the boundary of) the hull and the set is not fat.
func EmpiricalFatness(pts geom.Rows, k int, seed int64) float64 {
	if pts.Len() == 0 {
		return 0
	}
	dirs := append(sphere.RandomDirections(k, pts.D, seed), geom.AxisDirections(pts.D)...)
	idx, w := make([]int, len(dirs)), make([]float64, len(dirs))
	pts.MaxDots(dirs, idx, w)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range w {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi <= 0 {
		return 0
	}
	if lo < 0 {
		return lo // negative: caller sees non-fatness and the magnitude
	}
	return lo / hi
}

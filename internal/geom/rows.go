package geom

// Rows is a contiguous row-major block of points of dimension D: point i
// occupies R[i*D : (i+1)*D]. It is the flat layout behind every
// directional-maximum query over a small point set (ω(P,u), argmax,
// γ-threshold hits, sampled losses): one linear scan over a dense block
// beats a kd-tree's pointer chasing at the ξ ≈ 10²–10³ sizes extreme-point
// sets have.
//
// Each dot product accumulates exactly as Dot does — s := 0; s += p[k]*u[k]
// for k ascending — so every value is bitwise the one Dot would return.
type Rows struct {
	R []float64
	D int
}

// NewRows copies pts into a row-major block. All points must have the
// same dimension; an empty slice yields an empty block.
func NewRows(pts []Vector) Rows {
	if len(pts) == 0 {
		return Rows{}
	}
	d := len(pts[0])
	r := Rows{R: make([]float64, 0, len(pts)*d), D: d}
	for _, p := range pts {
		if len(p) != d {
			panic("geom: NewRows dimension mismatch")
		}
		r.R = append(r.R, p...)
	}
	return r
}

// Len returns the number of rows.
func (r Rows) Len() int {
	if r.D == 0 {
		return 0
	}
	return len(r.R) / r.D
}

// Dots writes ⟨row i, u⟩ into out[i] for every row and returns
// out[:Len()], reusing out's storage when it is large enough. Two rows
// are processed per iteration with independent accumulators, so their
// add chains overlap.
func (r Rows) Dots(u Vector, out []float64) []float64 {
	d := len(u)
	if d != r.D {
		panic("geom: Rows.Dots dimension mismatch")
	}
	n := r.Len()
	if cap(out) < n {
		out = make([]float64, n)
	}
	out = out[:n]
	rest := r.R
	i := 0
	for ; i+1 < n; i += 2 {
		a, b := rest[:d], rest[d:2*d]
		rest = rest[2*d:]
		var s0, s1 float64
		for k, uk := range u {
			s0 += a[k] * uk
			s1 += b[k] * uk
		}
		out[i], out[i+1] = s0, s1
	}
	if i < n {
		a := rest[:d]
		var s float64
		for k, uk := range u {
			s += a[k] * uk
		}
		out[i] = s
	}
	return out
}

// MaxDot returns the index and value of the row maximizing ⟨p,u⟩, ties
// to the smallest index — the same answer MaxDot gives over the points
// as a []Vector. It panics on an empty block.
func (r Rows) MaxDot(u Vector) (int, float64) {
	d := len(u)
	if d != r.D {
		panic("geom: Rows.MaxDot dimension mismatch")
	}
	n := r.Len()
	if n == 0 {
		panic("geom: Rows.MaxDot over empty block")
	}
	best, bestV := 0, 0.0
	rest := r.R
	i := 0
	for ; i+1 < n; i += 2 {
		a, b := rest[:d], rest[d:2*d]
		rest = rest[2*d:]
		var s0, s1 float64
		for k, uk := range u {
			s0 += a[k] * uk
			s1 += b[k] * uk
		}
		if i == 0 || s0 > bestV {
			best, bestV = i, s0
		}
		if s1 > bestV {
			best, bestV = i+1, s1
		}
	}
	if i < n {
		a := rest[:d]
		var s float64
		for k, uk := range u {
			s += a[k] * uk
		}
		if i == 0 || s > bestV {
			best, bestV = i, s
		}
	}
	return best, bestV
}

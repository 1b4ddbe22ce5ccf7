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

// Row returns row i as a view into the block, capped at its own D
// coordinates.
func (r Rows) Row(i int) Vector {
	return r.R[i*r.D : (i+1)*r.D : (i+1)*r.D]
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

// MaxDots answers MaxDot for every direction in us: idx[j], val[j] =
// r.MaxDot(us[j]), bit for bit and ties to the smallest index. Four
// directions share each pass over the block, with independent
// accumulators, so a batch of directions loads each row a quarter as
// often as separate MaxDot calls. idx and val must hold len(us) values.
// It panics on an empty block.
func (r Rows) MaxDots(us []Vector, idx []int, val []float64) {
	d, n := r.D, r.Len()
	if n == 0 {
		panic("geom: Rows.MaxDots over empty block")
	}
	if len(idx) < len(us) || len(val) < len(us) {
		panic("geom: Rows.MaxDots output too short")
	}
	j := 0
	for ; j+3 < len(us); j += 4 {
		u0, u1, u2, u3 := us[j], us[j+1], us[j+2], us[j+3]
		if len(u0) != d || len(u1) != d || len(u2) != d || len(u3) != d {
			panic("geom: Rows.MaxDots dimension mismatch")
		}
		var best [4]int
		var v0, v1, v2, v3 float64
		for k, x := range r.R[:d] {
			v0 += x * u0[k]
			v1 += x * u1[k]
			v2 += x * u2[k]
			v3 += x * u3[k]
		}
		for i := 1; i < n; i++ {
			var s0, s1, s2, s3 float64
			for k, x := range r.R[i*d : (i+1)*d] {
				s0 += x * u0[k]
				s1 += x * u1[k]
				s2 += x * u2[k]
				s3 += x * u3[k]
			}
			// A row rarely raises a running maximum: one well-predicted
			// test skips the four updates.
			if s0 > v0 || s1 > v1 || s2 > v2 || s3 > v3 {
				if s0 > v0 {
					best[0], v0 = i, s0
				}
				if s1 > v1 {
					best[1], v1 = i, s1
				}
				if s2 > v2 {
					best[2], v2 = i, s2
				}
				if s3 > v3 {
					best[3], v3 = i, s3
				}
			}
		}
		copy(idx[j:j+4], best[:])
		val[j], val[j+1], val[j+2], val[j+3] = v0, v1, v2, v3
	}
	for ; j < len(us); j++ {
		idx[j], val[j] = r.MaxDot(us[j])
	}
}

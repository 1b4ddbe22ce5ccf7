// Package geom provides the low-dimensional vector and matrix primitives
// used throughout mincore: inner products, norms, angles, orthogonalization,
// and planar (polar-coordinate) helpers.
//
// Points and directions are both represented as Vector, a []float64 of
// length d. The package is dimension-agnostic; d is expected to be a small
// constant (the paper assumes d ≤ 10 in all experiments).
package geom

import "math"

// Vector is a point or direction in R^d.
type Vector []float64

// NewVector returns a zero vector of dimension d.
func NewVector(d int) Vector { return make(Vector, d) }

// Dim returns the dimension of v.
func (v Vector) Dim() int { return len(v) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// Dot returns the inner product ⟨v,w⟩. It panics if dimensions differ.
func Dot(v, w Vector) float64 {
	if len(v) != len(w) {
		panic("geom: Dot dimension mismatch")
	}
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm returns the Euclidean norm ‖v‖.
func (v Vector) Norm() float64 { return math.Sqrt(Dot(v, v)) }

// NormSq returns ‖v‖².
func (v Vector) NormSq() float64 { return Dot(v, v) }

// Add returns v + w as a new vector.
func Add(v, w Vector) Vector {
	u := v.Clone()
	for i := range u {
		u[i] += w[i]
	}
	return u
}

// Sub returns v − w as a new vector.
func Sub(v, w Vector) Vector {
	u := v.Clone()
	for i := range u {
		u[i] -= w[i]
	}
	return u
}

// Scale returns c·v as a new vector.
func (v Vector) Scale(c float64) Vector {
	u := v.Clone()
	for i := range u {
		u[i] *= c
	}
	return u
}

// Neg returns −v as a new vector.
func (v Vector) Neg() Vector { return v.Scale(-1) }

// Normalize returns v/‖v‖ and reports whether v was nonzero. The zero
// vector is returned unchanged with ok=false.
func (v Vector) Normalize() (Vector, bool) {
	n := v.Norm()
	if n == 0 {
		return v.Clone(), false
	}
	return v.Scale(1 / n), true
}

// MustNormalize returns v/‖v‖ and panics on the zero vector. Use for
// directions that are nonzero by construction.
func (v Vector) MustNormalize() Vector {
	u, ok := v.Normalize()
	if !ok {
		panic("geom: MustNormalize of zero vector")
	}
	return u
}

// Dist returns the Euclidean distance ‖v−w‖.
func Dist(v, w Vector) float64 { return Sub(v, w).Norm() }

// Equal reports whether v and w agree exactly in every coordinate.
func Equal(v, w Vector) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// ApproxEqual reports whether ‖v−w‖∞ ≤ tol.
func ApproxEqual(v, w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}

// Angle returns the angle in [0,π] between nonzero vectors v and w.
func Angle(v, w Vector) float64 {
	c := Dot(v, w) / (v.Norm() * w.Norm())
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return math.Acos(c)
}

// Lerp returns (1−t)·v + t·w.
func Lerp(v, w Vector, t float64) Vector {
	u := make(Vector, len(v))
	for i := range u {
		u[i] = (1-t)*v[i] + t*w[i]
	}
	return u
}

// AxisVector returns the i-th standard basis vector of dimension d,
// scaled by sign (use ±1).
func AxisVector(d, i int, sign float64) Vector {
	v := NewVector(d)
	v[i] = sign
	return v
}

// AxisDirections returns the 2d signed axis directions +e₀, −e₀, +e₁,
// −e₁, …, in one block (see NewBlock).
func AxisDirections(d int) []Vector {
	dirs := NewBlock(2*d, d)
	for i := 0; i < d; i++ {
		dirs[2*i][i], dirs[2*i+1][i] = 1, -1
	}
	return dirs
}

// NewBlock returns n zero vectors of dimension d backed by one
// contiguous row-major array: vector i is the view flat[i*d:(i+1)*d],
// capped at its own d coordinates so that appending to one vector
// reallocates instead of writing into the next.
func NewBlock(n, d int) []Vector {
	flat := make([]float64, n*d)
	out := make([]Vector, n)
	for i := range out {
		out[i] = flat[i*d : (i+1)*d : (i+1)*d]
	}
	return out
}

// Centroid returns the arithmetic mean of the given points. It panics on
// an empty slice.
func Centroid(pts []Vector) Vector {
	if len(pts) == 0 {
		panic("geom: Centroid of empty point set")
	}
	c := NewVector(len(pts[0]))
	for _, p := range pts {
		for i := range c {
			c[i] += p[i]
		}
	}
	return c.Scale(1 / float64(len(pts)))
}

// MaxDot returns the index and value of the point in pts maximizing ⟨p,u⟩.
// It panics on an empty slice. This is the extreme point φ(P,u) and the
// maximum ω(P,u) of Definition 2.2 in the paper.
func MaxDot(pts []Vector, u Vector) (int, float64) {
	if len(pts) == 0 {
		panic("geom: MaxDot over empty point set")
	}
	best, bestV := 0, Dot(pts[0], u)
	for i := 1; i < len(pts); i++ {
		if v := Dot(pts[i], u); v > bestV {
			best, bestV = i, v
		}
	}
	return best, bestV
}

// MinDot returns the index and value of the point in pts minimizing ⟨p,u⟩.
func MinDot(pts []Vector, u Vector) (int, float64) {
	if len(pts) == 0 {
		panic("geom: MinDot over empty point set")
	}
	best, bestV := 0, Dot(pts[0], u)
	for i := 1; i < len(pts); i++ {
		if v := Dot(pts[i], u); v < bestV {
			best, bestV = i, v
		}
	}
	return best, bestV
}

// DirectionalWidth returns ω̄(P,u) = max⟨p,u⟩ − min⟨p,u⟩, the directional
// width used in the ε-kernel definition.
func DirectionalWidth(pts []Vector, u Vector) float64 {
	_, mx := MaxDot(pts, u)
	_, mn := MinDot(pts, u)
	return mx - mn
}

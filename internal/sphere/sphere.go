// Package sphere provides direction sampling on the unit sphere S^{d-1}:
// δ-nets built from normalized cube-boundary grids (the construction
// assumed by SCMC, Appendix A of the paper), uniform random directions,
// Fibonacci spirals for S², and evenly spaced directions on S¹.
package sphere

import (
	"fmt"
	"math"
	"math/rand"

	"mincore/internal/geom"
)

// RandomDirection returns a uniformly distributed unit vector in R^d using
// the Gaussian method.
func RandomDirection(rng *rand.Rand, d int) geom.Vector {
	v := geom.NewVector(d)
	fillDirection(rng, v)
	return v
}

// fillDirection overwrites v with a random unit vector: Gaussian
// coordinates scaled by the reciprocal of their norm (bitwise what
// geom.Vector.Normalize returns), redrawn on a zero vector.
func fillDirection(rng *rand.Rand, v geom.Vector) {
	for {
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		n := v.Norm()
		if n == 0 {
			continue
		}
		inv := 1 / n
		for i := range v {
			v[i] *= inv
		}
		return
	}
}

// RandomDirections returns n uniformly distributed unit vectors in R^d,
// deterministically from the seed. The vectors share one backing array
// (see geom.NewBlock).
func RandomDirections(n, d int, seed int64) []geom.Vector {
	rng := rand.New(rand.NewSource(seed))
	out := geom.NewBlock(n, d)
	for _, v := range out {
		fillDirection(rng, v)
	}
	return out
}

// Circle returns m evenly spaced unit vectors on S¹ starting at angle 0.
func Circle(m int) []geom.Vector {
	out := make([]geom.Vector, m)
	for i := range out {
		out[i] = geom.UnitFromTheta(2 * math.Pi * float64(i) / float64(m))
	}
	return out
}

// Fibonacci returns m near-uniform unit vectors on S² via the Fibonacci
// spiral; a cheap high-quality alternative to grids in 3D.
func Fibonacci(m int) []geom.Vector {
	out := make([]geom.Vector, m)
	golden := (1 + math.Sqrt(5)) / 2
	for i := range out {
		z := 1 - (2*float64(i)+1)/float64(m)
		r := math.Sqrt(1 - z*z)
		phi := 2 * math.Pi * float64(i) / golden
		out[i] = geom.Vector{r * math.Cos(phi), r * math.Sin(phi), z}
	}
	return out
}

// NetSize returns an upper bound on the number of directions Net(d, delta)
// generates, without generating them: 2d faces times (⌈2/h⌉+1)^{d−1} grid
// nodes, h = 2δ/√(d−1) (h = 2δ for d = 1... d must be ≥ 2).
func NetSize(d int, delta float64) int {
	if d < 2 {
		panic("sphere: NetSize requires d ≥ 2")
	}
	h := gridStep(d, delta)
	perAxis := int(math.Ceil(2/h)) + 1
	size := 2 * d
	for i := 0; i < d-1; i++ {
		if size > 1<<40/perAxis {
			return 1 << 40 // saturate; "too many"
		}
		size *= perAxis
	}
	return size
}

func gridStep(d int, delta float64) float64 {
	if d == 2 {
		return 2 * delta // one free coordinate; angle error ≤ h/2
	}
	return 2 * delta / math.Sqrt(float64(d-1))
}

// Net returns a δ-net of S^{d-1}: a set N of unit vectors such that every
// unit vector is within angular distance δ of some member. The
// construction places a grid of step h = 2δ/√(d−1) on each facet of the
// cube [−1,1]^d and normalizes the nodes; for any unit v, rounding
// v/‖v‖∞ to the grid moves it by at most (h/2)·√(d−1) in Euclidean norm
// while ‖v/‖v‖∞‖ ≥ 1, so the angular error is at most δ.
//
// The net has O(1/δ^{d-1}) members (Appendix A). Net panics if the net
// would exceed maxNetPoints; callers in high dimensions should use the
// iterative random-sampling strategy of SCMC instead.
func Net(d int, delta float64) []geom.Vector {
	if d < 2 {
		panic("sphere: Net requires d ≥ 2")
	}
	if delta <= 0 {
		panic("sphere: Net requires delta > 0")
	}
	const maxNetPoints = 20_000_000
	if NetSize(d, delta) > maxNetPoints {
		panic(fmt.Sprintf("sphere: δ-net too large (d=%d, δ=%g)", d, delta))
	}
	if d == 2 {
		// Exact: evenly spaced angles at step ≤ 2δ cover S¹ with radius δ.
		m := int(math.Ceil(math.Pi / delta))
		if m < 4 {
			m = 4
		}
		return Circle(m)
	}
	h := gridStep(d, delta)
	steps := int(math.Ceil(2 / h))
	seen := make(map[string]struct{})
	var out []geom.Vector
	coords := make([]int, d-1)
	var emit func(axis int, sign float64)
	emit = func(axis int, sign float64) {
		var rec func(k int)
		rec = func(k int) {
			if k == d-1 {
				v := geom.NewVector(d)
				v[axis] = sign
				j := 0
				for i := 0; i < d; i++ {
					if i == axis {
						continue
					}
					c := -1 + float64(coords[j])*h
					if c > 1 {
						c = 1
					}
					v[i] = c
					j++
				}
				u := v.MustNormalize()
				key := vecKey(u)
				if _, dup := seen[key]; !dup {
					seen[key] = struct{}{}
					out = append(out, u)
				}
				return
			}
			for s := 0; s <= steps; s++ {
				coords[k] = s
				rec(k + 1)
			}
		}
		rec(0)
	}
	for axis := 0; axis < d; axis++ {
		emit(axis, 1)
		emit(axis, -1)
	}
	return out
}

// vecKey quantizes a unit vector for deduplication of coincident grid
// nodes (cube edges/corners are shared between facets).
func vecKey(v geom.Vector) string {
	b := make([]byte, 0, 8*len(v))
	for _, c := range v {
		q := int64(math.Round(c * 1e12))
		for i := 0; i < 8; i++ {
			b = append(b, byte(q>>(8*i)))
		}
	}
	return string(b)
}

// MinAngleTo returns the smallest angular distance from v to any vector in
// set. It panics on an empty set.
func MinAngleTo(set []geom.Vector, v geom.Vector) float64 {
	if len(set) == 0 {
		panic("sphere: MinAngleTo over empty set")
	}
	best := math.Inf(1)
	for _, u := range set {
		if a := geom.Angle(u, v); a < best {
			best = a
		}
	}
	return best
}

// GridDirections returns roughly m near-uniform directions on S^{d-1}:
// exact even spacing on S¹, a Fibonacci spiral on S², and random uniform
// directions for d > 3 (seeded, deterministic). This is the direction
// generator used by the ANN ε-kernel baseline and the approximate IPDG.
func GridDirections(m, d int, seed int64) []geom.Vector {
	switch d {
	case 2:
		return Circle(m)
	case 3:
		return Fibonacci(m)
	default:
		return RandomDirections(m, d, seed)
	}
}

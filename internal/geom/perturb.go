package geom

import (
	"math"
	"math/bits"
	"math/rand"
)

// The paper assumes P is in general linear position (Section 2). Real and
// synthetic datasets contain duplicates and degeneracies; Perturb applies a
// deterministic symbolic-style perturbation so downstream code (hulls,
// Voronoi adjacency) can assume general position without special-casing.

// Perturb returns a copy of pts where each coordinate is jittered by a
// uniform offset in [−scale, scale], using the given seed. The input is
// not modified; the copies share one backing array, each capped at its
// own coordinates. scale should be far below the data resolution;
// callers typically pass scale ≈ 1e-9 for data normalized to [−1,1]^d.
func Perturb(pts []Vector, scale float64, seed int64) []Vector {
	rng := rand.New(rand.NewSource(seed))
	total := 0
	for _, p := range pts {
		total += len(p)
	}
	flat := make([]float64, total)
	out := make([]Vector, len(pts))
	for i, p := range pts {
		q := flat[:len(p):len(p)]
		flat = flat[len(p):]
		for j, c := range p {
			q[j] = c + scale*(2*rng.Float64()-1)
		}
		out[i] = q
	}
	return out
}

// Dedup returns pts with exact duplicates removed, preserving first
// occurrence order. Duplicate points never change maxima and inflate n for
// no benefit; all dataset loaders dedup before running algorithms.
//
// Points are equal when their coordinates have the same bit patterns
// (math.Float64bits), so -0 and 0 are distinct. The kept points are the
// input's own vectors, not copies. Lookup is an open-addressing table of
// indices into the output, keyed by a hash of the bits and confirmed by
// an exact bit comparison.
func Dedup(pts []Vector) []Vector {
	out := make([]Vector, 0, len(pts))
	size := 1
	for size < 2*len(pts) {
		size <<= 1
	}
	table := make([]int, size) // 1 + index into out; 0 marks an empty slot
	mask := uint64(size - 1)
	for _, p := range pts {
		for slot := bitsHash(p) & mask; ; slot = (slot + 1) & mask {
			e := table[slot]
			if e == 0 {
				out = append(out, p)
				table[slot] = len(out)
				break
			}
			if sameBits(out[e-1], p) {
				break
			}
		}
	}
	return out
}

// bitsHash mixes the coordinate bit patterns of p into 64 bits.
func bitsHash(p Vector) uint64 {
	h := uint64(len(p))
	for _, c := range p {
		h = bits.RotateLeft64(h^math.Float64bits(c)*0x9e3779b97f4a7c15, 31) * 0xc2b2ae3d27d4eb4f
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// sameBits reports whether p and q have the same dimension and identical
// coordinate bit patterns.
func sameBits(p, q Vector) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if math.Float64bits(p[i]) != math.Float64bits(q[i]) {
			return false
		}
	}
	return true
}

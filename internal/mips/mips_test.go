package mips

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"mincore/internal/geom"
)

func randomPoints(n, d int, seed int64) []geom.Vector {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vector, n)
	for i := range pts {
		pts[i] = geom.NewVector(d)
		for j := range pts[i] {
			pts[i][j] = rng.NormFloat64()
		}
	}
	return pts
}

func TestNearestNeighborExact(t *testing.T) {
	pts := randomPoints(2000, 3, 21)
	tree := NewKDTree(pts)
	rng := rand.New(rand.NewSource(22))
	for k := 0; k < 200; k++ {
		q := geom.Vector{rng.NormFloat64() * 2, rng.NormFloat64() * 2, rng.NormFloat64() * 2}
		i, d := tree.NearestNeighbor(q, 0)
		// Brute force.
		bj, bd := -1, math.Inf(1)
		for j, p := range pts {
			if dd := geom.Dist(p, q); dd < bd {
				bj, bd = j, dd
			}
		}
		if i != bj || math.Abs(d-bd) > 1e-12 {
			t.Fatalf("NN %d,%v vs brute %d,%v", i, d, bj, bd)
		}
	}
}

func TestNearestNeighborApproxGuarantee(t *testing.T) {
	pts := randomPoints(5000, 4, 31)
	tree := NewKDTree(pts)
	rng := rand.New(rand.NewSource(32))
	eps := 0.5
	for k := 0; k < 200; k++ {
		q := geom.NewVector(4)
		for j := range q {
			q[j] = rng.NormFloat64() * 2
		}
		_, d := tree.NearestNeighbor(q, eps)
		_, ed := tree.NearestNeighbor(q, 0)
		if d > (1+eps)*ed+1e-12 {
			t.Fatalf("approx NN %v exceeds (1+ε)·%v", d, ed)
		}
	}
}

func TestKDTreeDuplicatePoints(t *testing.T) {
	pts := []geom.Vector{{1, 1}, {1, 1}, {1, 1}, {0, 0}, {2, 0}}
	tree := NewKDTree(pts)
	i, dist := tree.NearestNeighbor(geom.Vector{1, 1.5}, 0)
	if i > 2 || dist != 0.5 {
		t.Fatalf("NearestNeighbor with duplicates: %d,%v", i, dist)
	}
}

func TestNthElement(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(100)
		vals := make([]int, n)
		for i := range vals {
			vals[i] = rng.Intn(50)
		}
		seg := make([]int, n)
		for i := range seg {
			seg[i] = i
		}
		k := rng.Intn(n)
		nthElement(seg, k, func(a, b int) bool { return vals[a] < vals[b] })
		kth := vals[seg[k]]
		sorted := append([]int(nil), vals...)
		sort.Ints(sorted)
		if kth != sorted[k] {
			t.Fatalf("trial %d: nth=%d want %d", trial, kth, sorted[k])
		}
	}
}

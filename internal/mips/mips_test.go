package mips

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"mincore/internal/geom"
	"mincore/internal/sphere"
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

func TestMaxDotMatchesLinearScan(t *testing.T) {
	for _, d := range []int{2, 3, 6} {
		pts := randomPoints(2000, d, int64(d))
		tree := NewKDTree(pts)
		rng := rand.New(rand.NewSource(99))
		for k := 0; k < 200; k++ {
			u := sphere.RandomDirection(rng, d)
			i, v := tree.MaxDot(u)
			j, w := geom.MaxDot(pts, u)
			if math.Abs(v-w) > 1e-12 {
				t.Fatalf("d=%d: MaxDot %v (idx %d) vs scan %v (idx %d)", d, v, i, w, j)
			}
		}
	}
}

func TestMaxDotSmallAndLeafOnly(t *testing.T) {
	pts := randomPoints(7, 3, 5) // below leafSize: single-leaf tree
	tree := NewKDTree(pts)
	u := geom.Vector{1, -1, 0.5}
	i, v := tree.MaxDot(u)
	j, w := geom.MaxDot(pts, u)
	if i != j || v != w {
		t.Fatalf("leaf-only tree wrong: %d,%v vs %d,%v", i, v, j, w)
	}
}

func TestMaxDotEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewKDTree(nil).MaxDot(geom.Vector{1, 0})
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

func TestKNearest(t *testing.T) {
	pts := randomPoints(500, 3, 41)
	tree := NewKDTree(pts)
	q := geom.Vector{0.1, -0.2, 0.3}
	for _, k := range []int{1, 5, 17} {
		got := tree.KNearest(q, k)
		if len(got) != k {
			t.Fatalf("k=%d: got %d", k, len(got))
		}
		// Compare against brute force.
		type di struct {
			d float64
			i int
		}
		all := make([]di, len(pts))
		for i, p := range pts {
			all[i] = di{geom.Dist(p, q), i}
		}
		sort.Slice(all, func(a, b int) bool { return all[a].d < all[b].d })
		for i := 0; i < k; i++ {
			if got[i] != all[i].i {
				t.Fatalf("k=%d: position %d: %d vs %d", k, i, got[i], all[i].i)
			}
		}
	}
	if got := tree.KNearest(q, 0); got != nil {
		t.Fatalf("k=0 should be nil, got %v", got)
	}
	if got := tree.KNearest(q, 1000); len(got) != 500 {
		t.Fatalf("k>n should clamp, got %d", len(got))
	}
}

func TestIndexApproxExtreme(t *testing.T) {
	pts := randomPoints(3000, 3, 51)
	ix := NewIndex(pts, 0)
	rng := rand.New(rand.NewSource(52))
	for k := 0; k < 100; k++ {
		u := sphere.RandomDirection(rng, 3)
		ai := ix.ApproxExtreme(u, 0) // exact NN → near-exact extreme
		_, mx := geom.MaxDot(pts, u)
		got := geom.Dot(pts[ai], u)
		// Additive error from finite rho: ‖p‖²max/(2ρ) with ρ = 64·maxnorm.
		maxN := 0.0
		for _, p := range pts {
			if n := p.Norm(); n > maxN {
				maxN = n
			}
		}
		slack := maxN * maxN / (2 * 64 * maxN)
		if got < mx-2*slack-1e-9 {
			t.Fatalf("ApproxExtreme too far off: %v vs max %v (slack %v)", got, mx, slack)
		}
	}
}

func TestIndexExtremeExact(t *testing.T) {
	pts := randomPoints(1000, 5, 61)
	ix := NewIndex(pts, 0)
	rng := rand.New(rand.NewSource(62))
	for k := 0; k < 100; k++ {
		u := sphere.RandomDirection(rng, 5)
		i, v := ix.Extreme(u)
		j, w := geom.MaxDot(pts, u)
		if i != j || v != w {
			t.Fatalf("Extreme mismatch")
		}
	}
}

func TestKDTreeDuplicatePoints(t *testing.T) {
	pts := []geom.Vector{{1, 1}, {1, 1}, {1, 1}, {0, 0}, {2, 0}}
	tree := NewKDTree(pts)
	i, v := tree.MaxDot(geom.Vector{0, 1})
	if v != 1 {
		t.Fatalf("MaxDot with duplicates: %d,%v", i, v)
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

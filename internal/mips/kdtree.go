// Package mips provides (approximate) nearest-neighbor queries over
// low-dimensional point sets via a kd-tree with branch-and-bound
// pruning. It substitutes for the ANN library of Mount used by the
// paper's baseline implementation [45]: the ANN ε-kernel algorithm
// (internal/kernel) issues one nearest-neighbor query per grid point on
// a sphere enclosing the data, which reduces the baseline's
// maximum-inner-product (extreme-point) search to nearest-neighbor
// search. Exact directional maxima run as flat scans (geom.Rows)
// instead of through the tree.
package mips

import (
	"math"

	"mincore/internal/geom"
)

// KDTree is a static kd-tree over a point set. Build once with NewKDTree;
// queries are read-only and goroutine-safe.
type KDTree struct {
	pts   []geom.Vector
	nodes []node
	d     int
	// perm maps tree leaf slots back to original point indices.
	perm []int
}

type node struct {
	// Internal nodes: axis ≥ 0, children indices.
	// Leaves: axis = −1, [lo,hi) range into perm.
	axis        int
	left, right int
	lo, hi      int
	// Bounding box of the subtree.
	bboxLo, bboxHi geom.Vector
}

const leafSize = 16

// NewKDTree builds a kd-tree over pts. The slice is retained (not copied);
// callers must not mutate it afterwards.
func NewKDTree(pts []geom.Vector) *KDTree {
	if len(pts) == 0 {
		return &KDTree{}
	}
	t := &KDTree{pts: pts, d: pts[0].Dim(), perm: make([]int, len(pts))}
	for i := range t.perm {
		t.perm[i] = i
	}
	t.build(0, len(pts))
	return t
}

func (t *KDTree) build(lo, hi int) int {
	idx := len(t.nodes)
	t.nodes = append(t.nodes, node{})
	bbLo := geom.NewVector(t.d)
	bbHi := geom.NewVector(t.d)
	for i := range bbLo {
		bbLo[i] = math.Inf(1)
		bbHi[i] = math.Inf(-1)
	}
	for _, pi := range t.perm[lo:hi] {
		p := t.pts[pi]
		for i := 0; i < t.d; i++ {
			if p[i] < bbLo[i] {
				bbLo[i] = p[i]
			}
			if p[i] > bbHi[i] {
				bbHi[i] = p[i]
			}
		}
	}
	if hi-lo <= leafSize {
		t.nodes[idx] = node{axis: -1, lo: lo, hi: hi, bboxLo: bbLo, bboxHi: bbHi}
		return idx
	}
	// Split on the widest axis at the median.
	axis, width := 0, -1.0
	for i := 0; i < t.d; i++ {
		if w := bbHi[i] - bbLo[i]; w > width {
			axis, width = i, w
		}
	}
	seg := t.perm[lo:hi]
	mid := len(seg) / 2
	nthElement(seg, mid, func(a, b int) bool { return t.pts[a][axis] < t.pts[b][axis] })
	t.nodes[idx] = node{axis: axis, bboxLo: bbLo, bboxHi: bbHi}
	l := t.build(lo, lo+mid)
	r := t.build(lo+mid, hi)
	t.nodes[idx].left = l
	t.nodes[idx].right = r
	return idx
}

// nthElement partially sorts seg so that seg[k] is the k-th order
// statistic under less (quickselect with median-of-three pivoting).
func nthElement(seg []int, k int, less func(a, b int) bool) {
	lo, hi := 0, len(seg)-1
	for lo < hi {
		// Median-of-three pivot.
		mid := (lo + hi) / 2
		if less(seg[mid], seg[lo]) {
			seg[mid], seg[lo] = seg[lo], seg[mid]
		}
		if less(seg[hi], seg[lo]) {
			seg[hi], seg[lo] = seg[lo], seg[hi]
		}
		if less(seg[hi], seg[mid]) {
			seg[hi], seg[mid] = seg[mid], seg[hi]
		}
		pivot := seg[mid]
		i, j := lo, hi
		for i <= j {
			for less(seg[i], pivot) {
				i++
			}
			for less(pivot, seg[j]) {
				j--
			}
			if i <= j {
				seg[i], seg[j] = seg[j], seg[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			return
		}
	}
}

// boxMinDistSq returns the squared distance from q to the node's box.
func (n *node) boxMinDistSq(q geom.Vector) float64 {
	var s float64
	for i := range q {
		if q[i] < n.bboxLo[i] {
			d := n.bboxLo[i] - q[i]
			s += d * d
		} else if q[i] > n.bboxHi[i] {
			d := q[i] - n.bboxHi[i]
			s += d * d
		}
	}
	return s
}

// NearestNeighbor returns the index and distance of the point nearest to
// q. eps ≥ 0 makes the search approximate in the ANN-library sense: the
// returned point is within (1+eps) of the true nearest distance, with
// pruning accelerated accordingly. Panics on an empty tree.
func (t *KDTree) NearestNeighbor(q geom.Vector, eps float64) (int, float64) {
	if len(t.pts) == 0 {
		panic("mips: NearestNeighbor on empty tree")
	}
	best, bestD := -1, math.Inf(1)
	shrink := 1 / ((1 + eps) * (1 + eps))
	var rec func(ni int)
	rec = func(ni int) {
		n := &t.nodes[ni]
		if n.boxMinDistSq(q) >= bestD*shrink {
			return
		}
		if n.axis < 0 {
			for _, pi := range t.perm[n.lo:n.hi] {
				if d := geom.Sub(t.pts[pi], q).NormSq(); d < bestD {
					best, bestD = pi, d
				}
			}
			return
		}
		l, r := n.left, n.right
		if t.nodes[l].boxMinDistSq(q) > t.nodes[r].boxMinDistSq(q) {
			l, r = r, l
		}
		rec(l)
		rec(r)
	}
	rec(0)
	return best, math.Sqrt(bestD)
}

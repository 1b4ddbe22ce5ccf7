// Package mips provides maximum-inner-product search (MIPS) and
// approximate nearest-neighbor (ANN) queries over low-dimensional point
// sets via a kd-tree with branch-and-bound pruning. It substitutes for the
// ANN library of Mount used by the paper's baseline implementation [45]:
// the ANN ε-kernel algorithm (internal/kernel) issues one (approximate)
// extreme-point query per grid direction. The core algorithms issue no
// MIPS or range queries: their directional maxima run over the ξ extreme
// points only, where a flat scan (geom.Rows) beats the tree.
package mips

import (
	"container/heap"
	"math"
	"sort"

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
	// Internal nodes: axis ≥ 0, split value, children indices.
	// Leaves: axis = −1, [lo,hi) range into perm.
	axis        int
	split       float64
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

// Len returns the number of indexed points.
func (t *KDTree) Len() int { return len(t.pts) }

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
	split := t.pts[seg[mid]][axis]
	n := node{axis: axis, split: split, bboxLo: bbLo, bboxHi: bbHi}
	t.nodes[idx] = n
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

// boxMaxDot returns the maximum of ⟨x,u⟩ over the node's bounding box.
func (n *node) boxMaxDot(u geom.Vector) float64 {
	var s float64
	for i := range u {
		if u[i] >= 0 {
			s += u[i] * n.bboxHi[i]
		} else {
			s += u[i] * n.bboxLo[i]
		}
	}
	return s
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

// MaxDot returns the index (into the original slice) and value of the
// point maximizing ⟨p,u⟩, found exactly by branch-and-bound on box support
// values. Panics on an empty tree.
func (t *KDTree) MaxDot(u geom.Vector) (int, float64) {
	if len(t.pts) == 0 {
		panic("mips: MaxDot on empty tree")
	}
	best, bestV := -1, math.Inf(-1)
	var rec func(ni int)
	rec = func(ni int) {
		n := &t.nodes[ni]
		if n.boxMaxDot(u) <= bestV {
			return
		}
		if n.axis < 0 {
			for _, pi := range t.perm[n.lo:n.hi] {
				if v := geom.Dot(t.pts[pi], u); v > bestV {
					best, bestV = pi, v
				}
			}
			return
		}
		// Visit the more promising child first.
		l, r := n.left, n.right
		if t.nodes[l].boxMaxDot(u) < t.nodes[r].boxMaxDot(u) {
			l, r = r, l
		}
		rec(l)
		rec(r)
	}
	rec(0)
	return best, bestV
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

// KNearest returns the k nearest points to q (exact), ordered by
// increasing distance.
func (t *KDTree) KNearest(q geom.Vector, k int) []int {
	if k <= 0 || len(t.pts) == 0 {
		return nil
	}
	if k > len(t.pts) {
		k = len(t.pts)
	}
	h := &maxHeap{}
	var rec func(ni int)
	rec = func(ni int) {
		n := &t.nodes[ni]
		if h.Len() == k && n.boxMinDistSq(q) >= (*h)[0].d {
			return
		}
		if n.axis < 0 {
			for _, pi := range t.perm[n.lo:n.hi] {
				d := geom.Sub(t.pts[pi], q).NormSq()
				if h.Len() < k {
					heap.Push(h, distItem{d: d, i: pi})
				} else if d < (*h)[0].d {
					(*h)[0] = distItem{d: d, i: pi}
					heap.Fix(h, 0)
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
	out := make([]distItem, h.Len())
	copy(out, *h)
	sort.Slice(out, func(i, j int) bool { return out[i].d < out[j].d })
	ids := make([]int, len(out))
	for i, it := range out {
		ids[i] = it.i
	}
	return ids
}

type distItem struct {
	d float64
	i int
}

type maxHeap []distItem

func (h maxHeap) Len() int            { return len(h) }
func (h maxHeap) Less(i, j int) bool  { return h[i].d > h[j].d }
func (h maxHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *maxHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *maxHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

package main

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
)

// certSlack is the tolerance the library certifies against (its
// certTol): a coreset passes when its measured loss is at most ε plus
// this slack.
const certSlack = 1e-9

// oracle measures the directional loss of a coreset by brute force. It
// shares no code with the program's hull or loss evaluators: ω(P,u) is
// the plain maximum of ⟨p,u⟩ over every input point, computed here, on
// a seeded direction set (the 2d axis directions plus uniform samples
// on the sphere). Sampled directions give a lower bound on the exact
// loss, so the oracle can reject a coreset the certificate wrongly
// accepted, never the other way round.
type oracle struct {
	d    int
	dirs []float64 // k unit directions, row-major k×d
}

// newOracle builds an oracle for dimension d with k sampled directions
// besides the axes.
func newOracle(d, k int, seed int64) *oracle {
	rng := rand.New(rand.NewSource(seed))
	o := &oracle{d: d}
	for i := 0; i < d; i++ {
		for _, s := range []float64{1, -1} {
			u := make([]float64, d)
			u[i] = s
			o.dirs = append(o.dirs, u...)
		}
	}
	for n := 0; n < k; {
		u := make([]float64, d)
		norm := 0.0
		for j := range u {
			u[j] = rng.NormFloat64()
			norm += u[j] * u[j]
		}
		if norm < 1e-12 {
			continue
		}
		norm = math.Sqrt(norm)
		for j := range u {
			u[j] /= norm
		}
		o.dirs = append(o.dirs, u...)
		n++
	}
	return o
}

// numDirs returns the number of directions the oracle checks.
func (o *oracle) numDirs() int { return len(o.dirs) / o.d }

// loss returns max over the direction set of 1 − ω(Q,u)/ω(P,u). A
// direction in which P has no positive extent (the set is not fat
// around the origin) reads as total loss 1 unless Q attains the same
// maximum.
func (o *oracle) loss(P, Q [][]float64) float64 {
	if len(Q) == 0 {
		return 1
	}
	flatP, normP := byNorm(P, o.d)
	flatQ := flatten(Q, o.d)
	k := o.numDirs()
	workers := runtime.GOMAXPROCS(0)
	if workers > k {
		workers = k
	}
	worst := make([]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < k; i += workers {
				u := o.dirs[i*o.d : (i+1)*o.d]
				wp := maxDotSorted(flatP, normP, u)
				wq := maxDot(flatQ, u)
				var l float64
				switch {
				case wp > 0:
					l = 1 - wq/wp
				case wq >= wp:
					l = 0
				default:
					l = 1
				}
				if l > worst[w] {
					worst[w] = l
				}
			}
		}(w)
	}
	wg.Wait()
	return math.Min(1, maxOf(worst))
}

// accepts reports whether the coreset's oracle loss is within eps.
func (o *oracle) accepts(P, Q [][]float64, eps float64) (float64, bool) {
	l := o.loss(P, Q)
	return l, l <= eps+certSlack
}

// maxDot returns the largest ⟨p,u⟩ over the row-major point block pts.
func maxDot(pts, u []float64) float64 {
	d := len(u)
	best := math.Inf(-1)
	for off := 0; off+d <= len(pts); off += d {
		v := 0.0
		for j, uj := range u {
			v += pts[off+j] * uj
		}
		if v > best {
			best = v
		}
	}
	return best
}

// byNorm returns the points flattened row-major in order of decreasing
// Euclidean norm, with the norms.
func byNorm(pts [][]float64, d int) ([]float64, []float64) {
	order := make([]int, len(pts))
	norms := make([]float64, len(pts))
	for i, p := range pts {
		order[i] = i
		for _, v := range p {
			norms[i] += v * v
		}
		norms[i] = math.Sqrt(norms[i])
	}
	sort.Slice(order, func(a, b int) bool { return norms[order[a]] > norms[order[b]] })
	flat := make([]float64, 0, len(pts)*d)
	sorted := make([]float64, len(pts))
	for k, i := range order {
		flat = append(flat, pts[i]...)
		sorted[k] = norms[i]
	}
	return flat, sorted
}

// maxDotSorted is maxDot over points sorted by decreasing norm: for a
// unit direction u, ⟨p,u⟩ ≤ ‖p‖, so the scan stops at the first point
// whose norm cannot beat the best value found. The result is exact.
func maxDotSorted(pts, norms, u []float64) float64 {
	d := len(u)
	best := math.Inf(-1)
	for i, off := 0, 0; off+d <= len(pts); i, off = i+1, off+d {
		if norms[i] <= best {
			break
		}
		v := 0.0
		for j, uj := range u {
			v += pts[off+j] * uj
		}
		if v > best {
			best = v
		}
	}
	return best
}

func flatten(pts [][]float64, d int) []float64 {
	out := make([]float64, 0, len(pts)*d)
	for _, p := range pts {
		out = append(out, p...)
	}
	return out
}

package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"mincore/internal/geom"
	"mincore/internal/obs"
	"mincore/internal/parallel"
	"mincore/internal/setcover"
	"mincore/internal/sphere"
)

// SCMC: the set-cover approximation of Appendix A. Voronoi cells are
// discretized by a set N of directions; the set system has universe N and
// one set per point p — the sampled vectors lying in p's γ-approximate
// cell, S_p = {u ∈ N : ⟨p,u⟩ ≥ (1−γ)·ω(P,u)} — and a greedy set cover is
// a feasible MC solution (Lemma A.1 with 2δ + γ ≤ ε).
//
// Two variants are provided:
//
//   - SCMCNet follows Algorithm 4 literally with a deterministic
//     (αδ/d)-net, practical only in low dimensions where the net size
//     O(1/δ^{d-1}) is manageable.
//   - SCMC (the default) uses the iterative doubling strategy of the
//     Appendix A remark: sample m random directions, solve, validate
//     l(Q) ≤ ε exactly, and double m until valid. This is the variant
//     whose running time the paper benchmarks.

// SCMCOptions tunes the algorithm. Zero values select the paper's
// defaults.
type SCMCOptions struct {
	Gamma       float64 // cell approximation; default ε/2
	InitSamples int     // initial m for the doubling variant; default 4·(d+1)·8
	MaxSamples  int     // doubling cap; default 1<<20
	Seed        int64
}

func (o *SCMCOptions) defaults(eps float64, d int) {
	if o.Gamma == 0 {
		o.Gamma = eps / 2
	}
	if o.InitSamples == 0 {
		o.InitSamples = 32 * (d + 1)
	}
	if o.MaxSamples == 0 {
		o.MaxSamples = 1 << 20
	}
}

// SCMC computes an ε-coreset by iterative sample doubling. Returns the
// coreset (indices into inst.Pts) and the number of sampled directions of
// the final, successful stage.
func (inst *Instance) SCMC(eps float64, opts SCMCOptions) ([]int, int, error) {
	return inst.SCMCCtx(context.Background(), eps, opts)
}

// SCMCCtx is SCMC with cooperative cancellation: the context is checked
// between doubling stages and propagated into the parallel set-system
// construction and loss validations.
//
// Each stage draws its directions afresh and computes ω(P,u) in the same
// flat pass over the extreme points that collects the γ-threshold hits,
// so there is no ε-independent substrate left worth memoizing across an
// ε sweep.
func (inst *Instance) SCMCCtx(ctx context.Context, eps float64, opts SCMCOptions) ([]int, int, error) {
	if eps <= 0 || eps >= 1 {
		return nil, 0, fmt.Errorf("core: SCMC requires ε ∈ (0,1), got %g", eps)
	}
	opts.defaults(eps, inst.D)
	m := opts.InitSamples
	seed := opts.Seed
	for {
		if obs.On() {
			mSCMCRounds.Inc()
		}
		dirs := sphere.RandomDirections(m, inst.D, seed+int64(m))
		q, err := inst.scmcSolveCtx(ctx, dirs, opts.Gamma)
		if err != nil {
			return nil, 0, err
		}
		// Sampled lower bound screens out clearly-invalid stages before
		// paying for the exact loss.
		if len(q) > 0 {
			ok, err := inst.sampledLossWithin(ctx, q, eps, 2048, seed+int64(m)+5)
			if err != nil {
				return nil, 0, err
			}
			if ok {
				l, err := inst.LossCtx(ctx, q)
				if err != nil {
					return nil, 0, err
				}
				if l <= eps {
					return q, m, nil
				}
			}
		}
		if m >= opts.MaxSamples {
			// Give up on sampling: X itself is a 0-coreset and always
			// valid; the paper's implementation cannot reach this point
			// on fat instances, but degenerate inputs deserve an answer.
			return append([]int(nil), inst.X...), m, nil
		}
		m *= 2
	}
}

// SCMCNet runs Algorithm 4 with the deterministic (αδ/d)-net, δ = ε/4,
// γ = ε/2 (or the provided overrides via opts.Gamma and delta ≤ 0 for the
// default). Practical for d ≤ 3; the net size grows as O(1/δ^{d-1}).
func (inst *Instance) SCMCNet(eps, delta float64, opts SCMCOptions) ([]int, int, error) {
	if eps <= 0 || eps >= 1 {
		return nil, 0, fmt.Errorf("core: SCMCNet requires ε ∈ (0,1), got %g", eps)
	}
	opts.defaults(eps, inst.D)
	if delta <= 0 {
		delta = eps / 4
	}
	radius := inst.Alpha * delta / float64(inst.D)
	net := sphere.Net(inst.D, radius)
	q, err := inst.scmcSolve(net, opts.Gamma)
	if err != nil {
		return nil, 0, err
	}
	return q, len(net), nil
}

// scmcSolve builds the set system over the given directions and returns
// the greedy cover's points (Lines 1–11 of Algorithm 4). Directions whose
// maximum is nonpositive (impossible on fat instances) are skipped.
func (inst *Instance) scmcSolve(dirs []geom.Vector, gamma float64) ([]int, error) {
	return inst.scmcSolveCtx(context.Background(), dirs, gamma)
}

// scmcSolveCtx is scmcSolve with cooperative cancellation. The per-
// direction hit lists are computed in parallel (scmcHits); the inversion
// into per-point sets then walks them in direction order and sorts the
// set owners by extreme-point index, so the set system (and hence the
// greedy cover) is identical for every worker count.
//
// Candidates are restricted to the extreme points: every direction's
// exact maximizer is extreme and lies in its own γ-approximate set, so a
// cover over extreme candidates always exists, and the doubling loop
// revalidates each stage with the exact loss — the restriction never
// costs correctness. It also keys the whole computation (threshold
// hits, owner ordering, greedy tie-breaks) to the extreme-point
// indexing, so the cover depends on ExtPts alone, not on the interior
// points.
func (inst *Instance) scmcSolveCtx(ctx context.Context, dirs []geom.Vector, gamma float64) ([]int, error) {
	hits, skip, err := inst.scmcHits(ctx, dirs, gamma)
	if err != nil {
		return nil, err
	}
	// Compact skipped directions and invert into per-extreme-point sets
	// in direction order.
	perPoint := make(map[int][]int)
	kept := 0
	for k := range hits {
		if skip[k] {
			continue
		}
		for _, e := range hits[k] {
			perPoint[e] = append(perPoint[e], kept)
		}
		kept++
	}
	if kept == 0 {
		return nil, nil
	}
	owners := make([]int, 0, len(perPoint))
	for e := range perPoint {
		owners = append(owners, e)
	}
	// Fixed greedy tie-breaking in extreme-point index order, independent
	// of map order and of the instance's original point numbering.
	sort.Ints(owners)
	sets := make([][]int, len(owners))
	for i, e := range owners {
		sets[i] = perPoint[e]
	}
	chosen, uncovered := setcover.Greedy(kept, sets)
	if uncovered > 0 {
		// Cannot happen: every direction's exact maximizer is within any
		// γ-approximation of itself. Defensive empty return.
		return nil, nil
	}
	out := make([]int, len(chosen))
	for i, s := range chosen {
		out[i] = inst.X[owners[s]]
	}
	return out, nil
}

// scmcHits is the set system's parallel stage: for each direction u, one
// flat dot row over the extreme points yields both ω(P,u) (its maximum)
// and the extreme points within the γ-approximation of it, hits[k] in
// ascending extreme-point index. skip[k] marks directions whose maximum
// is nonpositive. Each direction writes only its own slots, and the only
// per-direction allocation is its hit list.
func (inst *Instance) scmcHits(ctx context.Context, dirs []geom.Vector, gamma float64) ([][]int, []bool, error) {
	hits := make([][]int, len(dirs))
	skip := make([]bool, len(dirs))
	// Per-worker scratch: one dot row and one hit buffer each.
	xi := inst.ext.Len()
	nw := parallel.WorkersFor(inst.Workers, len(dirs))
	rows := make([]float64, nw*xi)
	idx := make([]int, nw*xi)
	err := parallel.ForWorker(ctx, inst.Workers, len(dirs), func(w, k int) {
		dots := inst.ext.Dots(dirs[k], rows[w*xi:(w+1)*xi])
		wmax := dots[0]
		for _, v := range dots[1:] {
			if v > wmax {
				wmax = v
			}
		}
		if wmax <= 0 {
			skip[k] = true
			return
		}
		tau := (1 - gamma) * wmax
		buf := idx[w*xi : w*xi : (w+1)*xi]
		for i, v := range dots {
			if v >= tau {
				buf = append(buf, i)
			}
		}
		hits[k] = append([]int(nil), buf...)
	})
	if err != nil {
		return nil, nil, err
	}
	return hits, skip, nil
}

// SCMCAdaptive is the data-dependent sampling improvement sketched at the
// end of Appendix B: after each stage, new samples are drawn near the
// "corner" directions where the current solution's loss is largest,
// rather than uniformly, so fewer total samples are needed to pin down
// the hard regions. Returns the coreset and total directions used.
func (inst *Instance) SCMCAdaptive(eps float64, opts SCMCOptions) ([]int, int, error) {
	if eps <= 0 || eps >= 1 {
		return nil, 0, fmt.Errorf("core: SCMCAdaptive requires ε ∈ (0,1), got %g", eps)
	}
	opts.defaults(eps, inst.D)
	dirs := sphere.RandomDirections(opts.InitSamples, inst.D, opts.Seed)
	total := len(dirs)
	for round := 0; ; round++ {
		q, err := inst.scmcSolve(dirs, opts.Gamma)
		if err != nil {
			return nil, 0, err
		}
		if len(q) > 0 && inst.Loss(q) <= eps {
			return q, total, nil
		}
		if total >= opts.MaxSamples {
			return append([]int(nil), inst.X...), total, nil
		}
		// Probe for high-loss corners and densify around them.
		probe := sphere.RandomDirections(4096, inst.D, opts.Seed+int64(1000+round))
		losses := inst.LossSampled(q, probe)
		var corners []geom.Vector
		for i, l := range losses {
			if l > eps {
				corners = append(corners, probe[i])
			}
		}
		grow := len(dirs) / 2
		if grow < 64 {
			grow = 64
		}
		if len(corners) == 0 {
			dirs = append(dirs, sphere.RandomDirections(grow, inst.D, opts.Seed+int64(2000+round))...)
		} else {
			jrng := sphere.RandomDirections(grow, inst.D, opts.Seed+int64(3000+round))
			for i := 0; i < grow; i++ {
				c := corners[i%len(corners)]
				// Jitter around the corner direction.
				v := geom.Add(c, jrng[i].Scale(0.15))
				u, ok := v.Normalize()
				if !ok {
					u = c
				}
				dirs = append(dirs, u)
			}
		}
		total = len(dirs)
	}
}

// SCMCExpectedSamples reports the δ-net size Algorithm 4 would need
// (O(1/δ^{d-1}) with δ = ε/4 and radius αδ/d) — the quantity that makes
// the literal algorithm impractical in high dimensions and motivates the
// doubling strategy.
func (inst *Instance) SCMCExpectedSamples(eps float64) int {
	radius := inst.Alpha * (eps / 4) / float64(inst.D)
	return sphere.NetSize(inst.D, math.Max(radius, 1e-9))
}

package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The early-exit sampled screen must return exactly the decision
// maxLossSampledCtx(...) <= eps gives, at every worker count — on the
// candidates the DSMC refine loop actually screens, on random subsets of
// the extreme points, and at eps right on and just below the sampled
// maximum.
func TestSampledScreenMatchesMaxLoss(t *testing.T) {
	ctx := context.Background()
	inst := fatRandom(t, 400, 4, 21)
	dg := mustDG(t, inst, inst.BuildIPDG(0, 1))
	var cands [][]int
	for _, eps := range []float64{0.05, 0.1, 0.2} {
		for k := 8; k >= 1; k-- {
			sel := inst.dsmcGreedy(dg, eps+2*eps*float64(k)/8)
			q := make([]int, len(sel))
			for i, v := range sel {
				q[i] = inst.X[v]
			}
			cands = append(cands, q)
		}
	}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 12; i++ {
		perm := rng.Perm(inst.Xi())
		q := make([]int, 1+rng.Intn(inst.Xi()))
		for j := range q {
			q[j] = inst.X[perm[j]]
		}
		cands = append(cands, q)
	}
	for ci, q := range cands {
		seed := int64(31 + ci)
		inst.Workers = 1
		ml, err := inst.maxLossSampledCtx(ctx, q, 2048, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0.05, 0.1, 0.2, ml, math.Nextafter(ml, -1)} {
			want := ml <= eps
			for _, workers := range []int{1, 2, 4} {
				inst.Workers = workers
				got, err := inst.sampledLossWithin(ctx, q, eps, 2048, seed)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s: sampledLossWithin = %v, maxLossSampled %v <= eps is %v",
						fmt.Sprintf("candidate %d (|Q|=%d) eps=%v workers=%d", ci, len(q), eps, workers), got, ml, want)
				}
			}
		}
	}
	inst.Workers = 0
}

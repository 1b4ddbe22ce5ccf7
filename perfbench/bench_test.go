package main

import (
	"testing"

	"mincore"
	"mincore/internal/data"
	"mincore/internal/geom"
	"mincore/internal/stream"
)

func TestPercentileRefusesShortTail(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i)
		}
		return out
	}
	for _, c := range []struct {
		n      int
		p      float64
		refuse bool
	}{
		{99, 0.9, true}, {100, 0.9, false}, {999, 0.99, true}, {1000, 0.99, false}, {19, 0.5, true}, {20, 0.5, false},
	} {
		v, err := percentile(xs(c.n), c.p)
		if (err != nil) != c.refuse {
			t.Errorf("percentile(n=%d, p=%g): err=%v, want refused=%v", c.n, c.p, err, c.refuse)
		}
		if err == nil {
			if want := float64(c.n) * c.p; v != want {
				t.Errorf("percentile(n=%d, p=%g) = %g, want %g", c.n, c.p, v, want)
			}
		}
	}
}

func TestOracleRejectsDroppedHullVertex(t *testing.T) {
	// The cube's corners are its hull vertices; interior points never
	// realize a maximum.
	var all, corners [][]float64
	for m := 0; m < 8; m++ {
		c := []float64{-1, -1, -1}
		for j := 0; j < 3; j++ {
			if m&(1<<j) != 0 {
				c[j] = 1
			}
		}
		corners = append(corners, c)
	}
	all = append(all, corners...)
	all = append(all, []float64{0.1, -0.2, 0.3}, []float64{-0.5, 0.5, 0})
	orc := newOracle(3, 2048, 1)
	if l, ok := orc.accepts(all, corners, 0.01); !ok || l > 1e-12 {
		t.Fatalf("all hull vertices: loss %g, accepted %v; want 0, true", l, ok)
	}
	planted := corners[:len(corners)-1] // drops (1,1,1)
	if l, ok := orc.accepts(all, planted, 0.1); ok {
		t.Fatalf("coreset without vertex (1,1,1) accepted at ε=0.1 (loss %g)", l)
	}
}

func TestOracleRejectsDroppedVertexOfLibraryCoreset(t *testing.T) {
	pts := points(data.Normal(300, 3, 5))
	cs, err := mincore.New(pts)
	if err != nil {
		t.Fatal(err)
	}
	q, err := cs.Coreset(0.05, mincore.Auto)
	if err != nil {
		t.Fatal(err)
	}
	b := libBuild{cs: cs, q: q}
	orc := newOracle(3, 4096, 1)
	if l, ok := checkBuild(orc, b, 0.05); !ok {
		t.Fatalf("library coreset rejected: loss %g", l)
	}
	// Every member is a hull vertex, so dropping one lowers the maximum
	// across its whole normal cone: at ε = 0 the oracle must see a loss.
	q2 := *q
	q2.Points = q.Points[1:]
	if l, ok := checkBuild(orc, libBuild{cs: cs, q: &q2}, 0); ok {
		t.Fatalf("planted coreset without member 0 accepted at ε=0 (loss %g)", l)
	}
}

func TestReplayMatchesLibraryAndFlagsPlantedMismatch(t *testing.T) {
	pts := points(data.Normal(300, 4, 9))
	b := runLibBuild(pts, 0.1)
	if b.err != nil {
		t.Fatal(b.err)
	}
	idx, _, _, repaired, err := replayBuild(newTracer(), 1, pts, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v := compareReplay(b.q, idx, repaired); v != replayMatch {
		t.Fatalf("replay verdict %d, want match", v)
	}
	planted := append([]int(nil), idx...)
	planted[0], planted[len(planted)-1] = planted[len(planted)-1], planted[0]
	if v := compareReplay(b.q, planted, false); v != replayMismatch {
		t.Fatalf("planted index swap: verdict %d, want mismatch", v)
	}
	if v := compareReplay(b.q, idx[1:], false); v != replayMismatch {
		t.Fatalf("planted dropped index: verdict %d, want mismatch", v)
	}
}

func TestAffineResidual(t *testing.T) {
	xs := [][]float64{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 2, 3}, {-2, 0.5, 1}}
	ys := make([][]float64, len(xs))
	for i, x := range xs {
		ys[i] = []float64{2*x[0] - x[1] + 0.5, x[2] + 3*x[0], -x[1] + x[2] - 1}
	}
	if r := affineResidual(xs, ys); r > 1e-9 {
		t.Fatalf("exact affine image: residual %g", r)
	}
	ys[4] = []float64{ys[4][0] + 0.01, ys[4][1], ys[4][2]}
	if r := affineResidual(xs, ys); r < 1e-4 {
		t.Fatalf("perturbed image: residual %g, want large", r)
	}
}

func TestChampSketchMatchesStream(t *testing.T) {
	for _, d := range []int{3, 4} {
		m := stream.SuggestDirections(0.05, 0.25, d)
		ref := stream.NewSummary(m, d, 1)
		got := newChampSketch(m, d, 1)
		for i, p := range data.Normal(6000, d, int64(d)).Points {
			if err := ref.Feed(p); err != nil {
				t.Fatal(err)
			}
			got.feed(p)
			if i%1500 != 1499 {
				continue
			}
			want, have := ref.Coreset(), got.champions()
			if len(want) != len(have) {
				t.Fatalf("d=%d after %d points: %d champions, want %d", d, i+1, len(have), len(want))
			}
			for k := range want {
				if !geom.Equal(want[k], have[k]) {
					t.Fatalf("d=%d after %d points: champion %d differs", d, i+1, k)
				}
			}
		}
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"sort"

	"mincore"
	"mincore/internal/geom"
	"mincore/internal/obs"
	"mincore/internal/sphere"
	"mincore/internal/stream"
	"mincore/internal/transform"
)

// Checking served coresets. The server normalizes the stream sketch's
// champion points before building, so /coreset returns points in a
// frame the client does not see. The checks rebuild that frame: the
// client replays the batches the server acknowledged, in order, into
// the same direction-net sketch, takes its champions at the stream
// position the report names, and normalizes them exactly as New does.
// When every returned point is one of those normalized champions, the
// coreset is made of points this client sent to that tenant and the
// oracle measures its loss against the champions it was certified on.
// When the position cannot be matched exactly (a batch applied out of
// order), membership is still proven by fitting the affine map from the
// nearest sent points to the returned ones and requiring a residual at
// the perturbation's scale.

// maxServeReplays bounds how many served builds a traced run replays.
const maxServeReplays = 20

// queryCheck is what the post-run checks found.
type queryCheck struct {
	latency                       []float64 // per query, from its due time; inf when it failed
	sizes                         []float64
	answered, withinSLO           int
	oracleChecked, membershipOnly int
	stages                        []stageMs
	libWall                       []float64
	mismatches                    int
}

type servedResponse struct {
	Eps    float64     `json:"eps"`
	Points [][]float64 `json:"points"`
	Report struct {
		Certified  bool     `json:"Certified"`
		Stale      bool     `json:"Stale"`
		Attempts   int      `json:"Attempts"`
		Fallbacks  []string `json:"Fallbacks"`
		Checkpoint *struct {
			StreamN int `json:"StreamN"`
		} `json:"Checkpoint"`
	} `json:"report"`
}

// champSketch computes the same champions as the server's direction-net
// sketch (internal/stream: the seeded grid directions plus the 2d axis
// directions, strict-improvement updates, inner products summed in
// coordinate order) but skips a point whose norm cannot beat the
// weakest champion value, which after a few thousand points is nearly
// every point. TestChampSketchMatchesStream pins the equivalence.
type champSketch struct {
	dirs  [][]float64
	best  [][]float64
	bestV []float64
	floor float64 // min of bestV once every direction has a champion
	n     int
}

func newChampSketch(m, d int, seed int64) *champSketch {
	if m < 2*d {
		m = 2 * d
	}
	c := &champSketch{floor: math.Inf(-1)}
	for _, u := range sphere.GridDirections(m, d, seed) {
		c.dirs = append(c.dirs, u)
	}
	for i := 0; i < d; i++ {
		c.dirs = append(c.dirs, geom.AxisVector(d, i, 1), geom.AxisVector(d, i, -1))
	}
	c.best = make([][]float64, len(c.dirs))
	c.bestV = make([]float64, len(c.dirs))
	return c
}

func (c *champSketch) clone() *champSketch {
	return &champSketch{dirs: c.dirs, best: append([][]float64(nil), c.best...),
		bestV: append([]float64(nil), c.bestV...), floor: c.floor, n: c.n}
}

func (c *champSketch) feed(p []float64) {
	c.n++
	norm := 0.0
	for _, v := range p {
		norm += v * v
	}
	// ⟨p,u⟩ ≤ ‖p‖ for unit u; the margin covers rounding.
	if math.Sqrt(norm)*(1+1e-9) < c.floor {
		return
	}
	updated := false
	for k, u := range c.dirs {
		var v float64
		for j := range p {
			v += p[j] * u[j]
		}
		if c.best[k] == nil || v > c.bestV[k] {
			c.best[k], c.bestV[k] = p, v
			updated = true
		}
	}
	if updated {
		c.floor = math.Inf(1)
		for k, b := range c.best {
			if b == nil {
				c.floor = math.Inf(-1)
				break
			}
			c.floor = math.Min(c.floor, c.bestV[k])
		}
	}
}

// champions returns the distinct champion points in direction order.
func (c *champSketch) champions() []geom.Vector {
	seen := map[string]bool{}
	var out []geom.Vector
	for _, p := range c.best {
		if p == nil {
			continue
		}
		if k := bitsKey(p); !seen[k] {
			seen[k] = true
			out = append(out, geom.Vector(p).Clone())
		}
	}
	return out
}

// sketchReplay rebuilds one tenant's sketch from its acknowledged
// batches, in order, configured like the server's.
type sketchReplay struct {
	t        *tenantData
	base     *champSketch // holds batches[:fed]
	fed      int
	cum      []int // cum[k] = points in batches[:k]
	inFlight int   // batches that may still be applying when a later one is done
}

func newSketchReplay(t *tenantData) *sketchReplay {
	m := stream.SuggestDirections(t.eps, t.alpha, t.spec.d)
	s := &sketchReplay{t: t, base: newChampSketch(m, t.spec.d, t.seed), cum: []int{0}, inFlight: 4}
	for _, b := range t.batches {
		s.cum = append(s.cum, s.cum[len(s.cum)-1]+len(b))
	}
	return s
}

func (s *sketchReplay) feed(c *champSketch, k int) {
	for _, p := range s.t.batches[k] {
		c.feed(p)
	}
}

// eachCandidate calls try with the champion set of every batch set
// that holds n points and that the server can have applied when it
// built, until try returns true: first the prefix of the acknowledged
// batches, then — because the ingest workers apply batches
// concurrently — prefixes with one of their last few batches still
// being applied. It reports whether try accepted one.
func (s *sketchReplay) eachCandidate(n int, try func(champs []geom.Vector) bool) bool {
	k0 := sort.SearchInts(s.cum, n) // first k with cum[k] >= n
	lo := max(0, k0-s.inFlight)
	for s.fed < lo {
		s.feed(s.base, s.fed)
		s.fed++
	}
	champions := func(k, skip int) []geom.Vector {
		c := s.base.clone()
		for b := s.fed; b < k; b++ {
			if b != skip {
				s.feed(c, b)
			}
		}
		return c.champions()
	}
	if k0 < len(s.cum) && s.cum[k0] == n && try(champions(k0, -1)) {
		return true
	}
	for k := k0; k <= k0+2 && k < len(s.cum); k++ {
		for b := max(s.fed, k-s.inFlight); b < k; b++ {
			if s.cum[k]-len(s.t.batches[b]) == n && try(champions(k, b)) {
				return true
			}
		}
	}
	return false
}

// normalizeLikeNew applies New's preprocessing with the library's
// default perturbation scale: dedupe, normalize, perturb with seed+1.
func normalizeLikeNew(raw []geom.Vector, seed int64) (*transform.Affine, []geom.Vector, error) {
	pts := make([]geom.Vector, len(raw))
	for i, p := range raw {
		pts[i] = p.Clone()
	}
	pts = geom.Dedup(pts)
	if constantDim(pts) {
		return nil, nil, fmt.Errorf("champions have a constant attribute")
	}
	aff, mapped, err := transform.Fatten(pts)
	if err != nil {
		return nil, nil, err
	}
	return aff, geom.Perturb(mapped, 1e-9, seed+1), nil
}

// checkQueries validates every /coreset answer after the run.
func (r *serveRun) checkQueries(qs []queryRec, rep *report, traced bool) queryCheck {
	var chk queryCheck
	orcs := map[int]*oracle{}
	for _, t := range r.tenants {
		orcs[t.spec.d] = newOracle(t.spec.d, 4096, r.cfg.seed)
	}
	type item struct {
		i    int
		resp *servedResponse
	}
	perTenant := make([][]item, len(r.tenants))
	chk.latency = make([]float64, len(qs))
	good := make([]bool, len(qs))
	for i, q := range qs {
		chk.latency[i] = inf
		if q.err != nil || q.status != http.StatusOK {
			rep.notef("query %d (%s ε=%g): status %d %v", i, r.tenants[q.tenant].spec.id, q.eps, q.status, q.err)
			continue
		}
		var resp servedResponse
		if err := json.Unmarshal(q.body, &resp); err != nil {
			rep.fail("query %d: undecodable response: %v", i, err)
			continue
		}
		if !resp.Report.Certified || resp.Report.Stale || resp.Report.Checkpoint == nil {
			rep.fail("query %d: certified=%v stale=%v", i, resp.Report.Certified, resp.Report.Stale)
			continue
		}
		chk.answered++
		perTenant[q.tenant] = append(perTenant[q.tenant], item{i, &resp})
	}
	replays := 0
	tr := newTracer()
	for ti, items := range perTenant {
		t := r.tenants[ti]
		sort.SliceStable(items, func(a, b int) bool {
			return items[a].resp.Report.Checkpoint.StreamN < items[b].resp.Report.Checkpoint.StreamN
		})
		sk := newSketchReplay(t)
		for _, it := range items {
			resp := it.resp
			var champs, norm []geom.Vector
			var aff *transform.Affine
			exact := sk.eachCandidate(resp.Report.Checkpoint.StreamN, func(c []geom.Vector) bool {
				a, nm, err := normalizeLikeNew(c, t.seed)
				if err != nil {
					return false
				}
				if aff == nil {
					aff = a
				}
				if !allIn(resp.Points, nm) {
					return false
				}
				champs, norm, aff = c, nm, a
				return true
			})
			if exact {
				loss, ok := orcs[t.spec.d].accepts(vecs(norm), resp.Points, resp.Eps)
				if !ok {
					rep.fail("query %d (%s): oracle loss %.6g > ε=%g against the %d champions",
						it.i, t.spec.id, loss, resp.Eps, len(norm))
					continue
				}
				chk.oracleChecked++
			} else {
				if aff == nil {
					aff = approxFrame(t)
				}
				if res, ok := fitsSentPoints(aff, t, resp.Points); !ok {
					rep.fail("query %d (%s): returned points are not an affine image of sent points (residual %.3g)",
						it.i, t.spec.id, res)
					continue
				}
				chk.membershipOnly++
			}
			good[it.i] = true
			chk.sizes = append(chk.sizes, float64(len(resp.Points)))
			if traced && exact && replays < maxServeReplays && resp.Report.Attempts == 1 && len(resp.Report.Fallbacks) == 0 {
				replays++
				r.replayServed(tr, replays, champs, t.seed, resp, &chk, rep)
			}
		}
	}
	for i, q := range qs {
		if good[i] {
			chk.latency[i] = ms(q.latency)
			if chk.latency[i] <= sloMs {
				chk.withinSLO++
			}
		}
		r.queryCount.add(good[i])
	}
	if traced {
		if err := tr.write(filepath.Join(r.cfg.out, "traces", fmt.Sprintf("serve-mixed-seed%d.json", r.cfg.seed))); err != nil {
			rep.notef("write spans: %v", err)
		}
	}
	return chk
}

// replayServed rebuilds one served coreset client-side, untraced
// through the library with the server's options and traced stage by
// stage, and checks both against the server's answer.
func (r *serveRun) replayServed(tr *tracer, build int, champs []geom.Vector, seed int64, resp *servedResponse, chk *queryCheck, rep *report) {
	raw := make([]mincore.Point, len(champs))
	for i, p := range champs {
		raw[i] = mincore.Point(p)
	}
	obs.Disable()
	b := runLibBuild(raw, resp.Eps, mincore.WithSeed(seed), mincore.WithBuildCache(0))
	obs.Enable()
	defer obs.Disable()
	if b.err != nil {
		rep.notef("served build replay: library build failed: %v", b.err)
		return
	}
	if b.q.Report.Attempts > 1 {
		return
	}
	idx, norm, st, repaired, err := replayBuild(tr, build, raw, resp.Eps, seed)
	if err != nil {
		rep.notef("served build replay: %v", err)
		return
	}
	same := !repaired && sameInts(idx, b.q.Indices) && len(idx) == len(resp.Points)
	for k := 0; same && k < len(idx); k++ {
		same = geom.Equal(norm[idx[k]], resp.Points[k])
	}
	if !same {
		chk.mismatches++
		rep.fail("served build replay differs from the server's answer")
		return
	}
	chk.stages = append(chk.stages, st)
	chk.libWall = append(chk.libWall, ms(b.wall))
}

// approxFrame normalizes the champions of every acknowledged point: a
// frame close to the server's when the exact position is unknown.
func approxFrame(t *tenantData) *transform.Affine {
	c := newChampSketch(stream.SuggestDirections(t.eps, t.alpha, t.spec.d), t.spec.d, t.seed)
	for _, b := range t.batches {
		for _, p := range b {
			c.feed(p)
		}
	}
	aff, _, err := normalizeLikeNew(c.champions(), t.seed)
	if err != nil {
		return nil
	}
	return aff
}

// fitsSentPoints maps each returned point back through aff, takes the
// nearest point sent to the tenant, and fits the least-squares affine
// map from those sent points to the returned ones. It succeeds when the
// fit's largest residual is at the scale of New's perturbation.
func fitsSentPoints(aff *transform.Affine, t *tenantData, got [][]float64) (float64, bool) {
	if aff == nil || len(got) <= t.spec.d {
		return math.Inf(1), false
	}
	var sent [][]float64
	for _, b := range t.batches {
		sent = append(sent, b...)
	}
	xs := make([][]float64, len(got))
	for i, q := range got {
		guess := aff.Invert(geom.Vector(q))
		best, bestD := -1, math.Inf(1)
		for j, p := range sent {
			d := 0.0
			for k := range p {
				d += (p[k] - guess[k]) * (p[k] - guess[k])
			}
			if d < bestD {
				best, bestD = j, d
			}
		}
		xs[i] = sent[best]
	}
	res := affineResidual(xs, got)
	return res, res <= 1e-6
}

// affineResidual fits y ≈ M·x + c by least squares and returns the
// largest absolute residual (+Inf when the fit is singular).
func affineResidual(xs, ys [][]float64) float64 {
	d := len(xs[0])
	n := d + 1
	worst := 0.0
	for c := 0; c < len(ys[0]); c++ {
		// Normal equations AᵀA w = Aᵀy with rows A_i = (x_i, 1).
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n+1)
		}
		for i, x := range xs {
			row := append(append([]float64(nil), x...), 1)
			for r := 0; r < n; r++ {
				for s := 0; s < n; s++ {
					a[r][s] += row[r] * row[s]
				}
				a[r][n] += row[r] * ys[i][c]
			}
		}
		w, ok := solve(a)
		if !ok {
			return math.Inf(1)
		}
		for i, x := range xs {
			v := w[d]
			for k := 0; k < d; k++ {
				v += w[k] * x[k]
			}
			worst = math.Max(worst, math.Abs(v-ys[i][c]))
		}
	}
	return worst
}

// solve runs Gaussian elimination with partial pivoting on the
// augmented n×(n+1) system a.
func solve(a [][]float64) ([]float64, bool) {
	n := len(a)
	for col := 0; col < n; col++ {
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[p][col]) {
				p = r
			}
		}
		if math.Abs(a[p][col]) < 1e-300 {
			return nil, false
		}
		a[col], a[p] = a[p], a[col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for k := col; k <= n; k++ {
				a[r][k] -= f * a[col][k]
			}
		}
	}
	w := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		v := a[r][n]
		for k := r + 1; k < n; k++ {
			v -= a[r][k] * w[k]
		}
		w[r] = v / a[r][r]
	}
	return w, true
}

// allIn reports whether every point of got equals (bit for bit) a
// point of pool.
func allIn(got [][]float64, pool []geom.Vector) bool {
	keys := make(map[string]bool, len(pool))
	for _, p := range pool {
		keys[bitsKey(p)] = true
	}
	for _, q := range got {
		if !keys[bitsKey(q)] {
			return false
		}
	}
	return true
}

func bitsKey(v []float64) string {
	b := make([]byte, 0, 8*len(v))
	for _, c := range v {
		u := math.Float64bits(c)
		for i := 0; i < 8; i++ {
			b = append(b, byte(u>>(8*i)))
		}
	}
	return string(b)
}

func vecs(pts []geom.Vector) [][]float64 {
	out := make([][]float64, len(pts))
	for i, p := range pts {
		out[i] = p
	}
	return out
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mincore"
	"mincore/internal/core"
	"mincore/internal/geom"
	"mincore/internal/hull"
	"mincore/internal/obs"
	"mincore/internal/parallel"
	"mincore/internal/transform"
)

// The traced run replays each build stage by stage through the same
// exported calls mincore.New and Coreset(ε, Auto) make, timing every
// call with a span recorded here and reading deltas of the program's
// own obs.Default counters around it. The program itself is not
// instrumented further.

// span is one timed call in the replay.
type span struct {
	Build  int    `json:"build"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a build's root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run started
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(build, parent int, name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Build: build, ID: id, Parent: parent, Name: name,
		Start: time.Since(t.epoch).Nanoseconds()})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = time.Since(t.epoch).Nanoseconds()
	return time.Duration(s.End - s.Start)
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Program counters read around replayed calls. Registration is
// idempotent, so these are the very series the solver packages update.
var (
	cLPSolves    = obs.Default.Counter("mincore_lp_solves_total", "", nil)
	cLPPivots    = obs.Default.Counter("mincore_lp_pivots_total", "", nil)
	cLPWarm      = obs.Default.Counter("mincore_lp_warm_solves_total", "", nil)
	cLPWarmDual  = obs.Default.Counter("mincore_lp_warm_dual_solves_total", "", nil)
	cSCMCRounds  = obs.Default.Counter("mincore_scmc_rounds_total", "", nil)
	cLossExactLP = obs.Default.Counter("mincore_loss_oracle_calls_total", "", obs.Labels{"evaluator": "exactlp"})
	cLossSampled = obs.Default.Counter("mincore_loss_oracle_calls_total", "", obs.Labels{"evaluator": "sampled"})
	cDGEdgeLPs   = obs.Default.Counter("mincore_dg_edge_lps_total", "", nil)
	cLossExact2D = obs.Default.Counter("mincore_loss_oracle_calls_total", "", obs.Labels{"evaluator": "exact2d"})
)

// lossCalls is the loss-oracle call count across evaluators.
func lossCalls() uint64 { return cLossExactLP.Value() + cLossSampled.Value() + cLossExact2D.Value() }

// stageMs holds one replayed build's per-layer figures.
type stageMs struct {
	input, dedup, fatten, perturb, hull, newInstance, workInstance  float64
	ipdg, dg, dsmc, scmc, dsmcBranch, scmcBranch, critical, certify float64
	wall, unaccounted                                               float64
	xi, hullLPs, dgEdgeLPs, scmcRounds, scmcSamples, certifyLPs     float64
	pivotsPerSolve, warmRatio, warmDualRatio, dsmcLossCalls         float64
	allocMB, gcCycles                                               float64
	dsmcCritical                                                    bool
}

// replayBuild re-runs New + Coreset(eps, Auto) stage by stage and
// returns the coreset indices (in the full instance's point order), or
// repaired=true when the first attempt would not certify and the
// library's repair pipeline would take over.
//
// seed is the Coreseter's seed (WithSeed; 0 by default): it drives the
// perturbation, the IPDG direction sample and SCMC's sampling. The
// normalized instance points come back too, so callers can compare
// coreset points as well as indices.
func replayBuild(tr *tracer, build int, raw []mincore.Point, eps float64, seed int64) (idx []int, norm []geom.Vector, st stageMs, repaired bool, err error) {
	ctx := context.Background()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	root := tr.begin(build, 0, "build")

	// New: validate and copy the input (mincore), dedupe (geom),
	// normalize (transform), perturb (geom), instance with hull
	// enumeration (core, hull), prefiltered work instance (core).
	sp := tr.begin(build, root, "mincore.input")
	pts := make([]geom.Vector, len(raw))
	for i, p := range raw {
		pts[i] = geom.Vector(p).Clone()
	}
	st.input = ms(tr.end(sp))

	sp = tr.begin(build, root, "geom.dedup")
	pts = geom.Dedup(pts)
	st.dedup = ms(tr.end(sp))
	if constantDim(pts) {
		return nil, nil, st, false, fmt.Errorf("input has a constant attribute; the replay does not model dimension dropping")
	}

	sp = tr.begin(build, root, "transform.fatten")
	_, pts, err = transform.Fatten(pts)
	st.fatten = ms(tr.end(sp))
	if err != nil {
		return nil, nil, st, false, err
	}

	sp = tr.begin(build, root, "geom.perturb")
	pts = geom.Perturb(pts, 1e-9, seed+1) // the library's default scale
	st.perturb = ms(tr.end(sp))

	// The hull probe times hull.ExtremePoints on its own; NewInstance
	// repeats the same call inside, so the probe is left out of the
	// replay's wall and subtracted from the instance span.
	lp0 := cLPSolves.Value()
	sp = tr.begin(build, root, "hull.extreme_points")
	x, err := hull.ExtremePoints(pts)
	probe := tr.end(sp)
	st.hull = ms(probe)
	st.hullLPs = float64(cLPSolves.Value() - lp0)
	if err != nil {
		return nil, nil, st, false, err
	}

	sp = tr.begin(build, root, "core.new_instance")
	inst, err := core.NewInstance(pts)
	st.newInstance = ms(tr.end(sp))
	if err != nil {
		return nil, nil, st, false, err
	}
	st.xi = float64(inst.Xi())
	if len(x) != inst.Xi() {
		return nil, nil, st, false, fmt.Errorf("hull probe found ξ=%d, instance ξ=%d", len(x), inst.Xi())
	}

	sp = tr.begin(build, root, "core.work_instance")
	work, remap := inst, []int(nil)
	if inst.Xi() < inst.N() {
		if w, werr := core.NewInstanceFromExtremes(inst.ExtPts); werr == nil {
			work, remap = w, inst.X
		}
	}
	st.workInstance = ms(tr.end(sp))

	// Coreset(ε, Auto) for d > 2: DSMC (IPDG, dominance graph, refine)
	// raced against SCMC, the smaller coreset wins, then certification.
	race := tr.begin(build, root, "auto.race")
	var qd, qs []int
	var errD, errS error
	var dg *core.DominanceGraph
	var scmcM int
	var roundsD uint64
	runD := func() {
		b := tr.begin(build, race, "auto.dsmc_branch")
		s := tr.begin(build, b, "voronoi.ipdg")
		ipdg := work.BuildIPDG(0, seed+13)
		st.ipdg = ms(tr.end(s))
		s = tr.begin(build, b, "core.dominance_graph")
		dg, errD = work.BuildDominanceGraphCtx(ctx, ipdg)
		st.dg = ms(tr.end(s))
		if errD == nil {
			s = tr.begin(build, b, "core.dsmc_refine")
			qd, errD = work.DSMCRefinedCtx(ctx, dg, eps, 8)
			st.dsmc = ms(tr.end(s))
		}
		st.dsmcBranch = ms(tr.end(b))
	}
	runS := func() {
		b := tr.begin(build, race, "auto.scmc_branch")
		r0 := cSCMCRounds.Value()
		qs, scmcM, errS = work.SCMCCtx(ctx, eps, core.SCMCOptions{Seed: seed})
		roundsD = cSCMCRounds.Value() - r0
		st.scmc = ms(tr.end(b))
		st.scmcBranch = st.scmc
	}
	if parallel.Workers(0) > 1 {
		parallel.Do(runD, runS)
	} else {
		runD()
		runS()
	}
	tr.end(race)
	st.critical = max(st.dsmcBranch, st.scmcBranch)
	st.dsmcCritical = st.dsmcBranch >= st.scmcBranch
	st.scmcRounds = float64(roundsD)
	st.scmcSamples = float64(scmcM)
	if dg != nil {
		st.dgEdgeLPs = float64(dg.NumLPs)
	}
	switch {
	case errD == nil && errS == nil:
		if len(qd) <= len(qs) {
			idx = qd
		} else {
			idx = qs
		}
	case errD == nil:
		idx = qd
	case errS == nil:
		idx = qs
	default:
		return nil, nil, st, true, nil
	}
	if remap != nil {
		out := make([]int, len(idx))
		for i, v := range idx {
			out[i] = remap[v]
		}
		idx = out
	}

	lp0 = cLPSolves.Value()
	sp = tr.begin(build, root, "core.certify")
	loss, lerr := inst.LossCtx(ctx, idx)
	st.certify = ms(tr.end(sp))
	st.certifyLPs = float64(cLPSolves.Value() - lp0)
	st.wall = ms(tr.end(root)) - st.hull
	runtime.ReadMemStats(&m1)
	st.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	st.gcCycles = float64(m1.NumGC - m0.NumGC)
	accounted := st.input + st.dedup + st.fatten + st.perturb + st.newInstance +
		st.workInstance + st.critical + st.certify
	st.unaccounted = st.wall - accounted
	if lerr != nil || loss > eps+certSlack {
		return idx, pts, st, true, nil
	}
	if err := countDSMCBranch(inst, eps, seed, &st); err != nil {
		return nil, nil, st, false, err
	}
	return idx, pts, st, false, nil
}

// countDSMCBranch re-runs the DSMC branch alone, outside the timed
// replay, because the process-wide LP and loss-oracle counters cannot
// tell the two raced branches apart. A fresh work instance keeps the
// instance's memoized substrate from shortening the rerun.
func countDSMCBranch(inst *core.Instance, eps float64, seed int64, st *stageMs) error {
	ctx := context.Background()
	work := inst
	if inst.Xi() < inst.N() {
		w, err := core.NewInstanceFromExtremes(inst.ExtPts)
		if err != nil {
			return err
		}
		work = w
	}
	ipdg := work.BuildIPDG(0, seed+13)
	s0, p0, w0, wd0, e0 := cLPSolves.Value(), cLPPivots.Value(), cLPWarm.Value(), cLPWarmDual.Value(), cDGEdgeLPs.Value()
	dg, err := work.BuildDominanceGraphCtx(ctx, ipdg)
	if err != nil {
		return err
	}
	solves := float64(cLPSolves.Value() - s0)
	edgeLPs := float64(cDGEdgeLPs.Value() - e0)
	st.pivotsPerSolve = ratio(float64(cLPPivots.Value()-p0), solves)
	st.warmRatio = ratio(float64(cLPWarm.Value()-w0), edgeLPs)
	st.warmDualRatio = ratio(float64(cLPWarmDual.Value()-wd0), edgeLPs)
	l0 := lossCalls()
	if _, err := work.DSMCRefinedCtx(ctx, dg, eps, 8); err != nil {
		return err
	}
	st.dsmcLossCalls = float64(lossCalls() - l0)
	return nil
}

// runBuildTraced is the traced run of a build workload: per build, the
// untraced library call (metrics off), then the stage-by-stage replay
// (metrics on), compared index for index.
func runBuildTraced(cfg config, spec buildSpec, rep *report) error {
	tr := newTracer()
	orc := newOracle(spec.d, spec.dirs, cfg.seed)
	var stages []stageMs
	var libWall, libNew []float64
	steal := startSteal()
	attempted, failed, mismatches, repaired := 0, 0, 0, 0
	loopStart := time.Now()
	for i := 0; (time.Since(loopStart).Seconds() < cfg.seconds || attempted < minTracedBuilds) && time.Since(loopStart) < loopCap; i++ {
		pts := spec.gen(buildSeed(cfg.seed, i))
		obs.Disable()
		b := runLibBuild(pts, spec.eps)
		obs.Enable()
		attempted++
		if b.err != nil {
			failed++
			rep.notef("build %d failed: %v", i, b.err)
			continue
		}
		if loss, ok := checkBuild(orc, b, spec.eps); !ok {
			failed++
			rep.fail("build %d: oracle loss %.6g > ε=%g", i, loss, spec.eps)
			continue
		}
		idx, _, st, replayRepaired, err := replayBuild(tr, i, pts, spec.eps, 0)
		if err != nil {
			return fmt.Errorf("replay of build %d: %w", i, err)
		}
		switch compareReplay(b.q, idx, replayRepaired) {
		case replayRepairedBuild:
			repaired++
			continue
		case replayMismatch:
			mismatches++
			rep.fail("build %d: replay indices differ from the library's", i)
			continue
		}
		stages = append(stages, st)
		libWall = append(libWall, ms(b.wall))
		libNew = append(libNew, ms(b.newWall))
	}
	obs.Disable()
	stealPct := steal.pct()
	rep.res.Attempted, rep.res.Failed = attempted, failed+mismatches
	path := filepath.Join(cfg.out, "traces", fmt.Sprintf("%s-seed%d.json", spec.name, cfg.seed))
	if err := tr.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	rep.notef("spans written to %s (%d spans, %d builds)", path, len(tr.spans), attempted)
	if len(stages) == 0 {
		return fmt.Errorf("no build replayed cleanly")
	}
	setBuildLayers(rep, stages, libWall, mismatches, repaired)
	setServeLayers(rep, nil)
	setWallLayers(rep, libWall, libNew, stealPct)
	return nil
}

// minTracedBuilds is the fewest builds a traced run averages over.
const minTracedBuilds = 10

// setBuildLayers reports per-build means of the replayed layers.
func setBuildLayers(rep *report, stages []stageMs, libWall []float64, mismatches, repaired int) {
	n := len(stages)
	avg := func(f func(s stageMs) float64) float64 {
		sum := 0.0
		for _, s := range stages {
			sum += f(s)
		}
		return sum / float64(n)
	}
	set := func(name string, f func(s stageMs) float64, unit string) { rep.set(name, avg(f), unit, n) }
	set("mincore.input_ms", func(s stageMs) float64 { return s.input }, "ms")
	set("geom.dedup_ms", func(s stageMs) float64 { return s.dedup }, "ms")
	set("transform.fatten_ms", func(s stageMs) float64 { return s.fatten }, "ms")
	set("geom.perturb_ms", func(s stageMs) float64 { return s.perturb }, "ms")
	set("hull.extreme_ms", func(s stageMs) float64 { return s.hull }, "ms")
	set("hull.xi", func(s stageMs) float64 { return s.xi }, "count")
	set("hull.lp_solves", func(s stageMs) float64 { return s.hullLPs }, "count")
	set("core.instance_ms", func(s stageMs) float64 { return s.newInstance - s.hull + s.workInstance }, "ms")
	set("voronoi.ipdg_ms", func(s stageMs) float64 { return s.ipdg }, "ms")
	set("core.dg_ms", func(s stageMs) float64 { return s.dg }, "ms")
	set("core.dg_edge_lps", func(s stageMs) float64 { return s.dgEdgeLPs }, "count")
	set("lp.pivots_per_solve", func(s stageMs) float64 { return s.pivotsPerSolve }, "ratio")
	set("lp.warm_ratio", func(s stageMs) float64 { return s.warmRatio }, "ratio")
	set("lp.warm_dual_ratio", func(s stageMs) float64 { return s.warmDualRatio }, "ratio")
	set("core.dsmc_ms", func(s stageMs) float64 { return s.dsmc }, "ms")
	set("core.dsmc_loss_calls", func(s stageMs) float64 { return s.dsmcLossCalls }, "count")
	set("core.scmc_ms", func(s stageMs) float64 { return s.scmc }, "ms")
	set("core.scmc_rounds", func(s stageMs) float64 { return s.scmcRounds }, "count")
	set("core.scmc_samples", func(s stageMs) float64 { return s.scmcSamples }, "count")
	set("auto.critical_path_ms", func(s stageMs) float64 { return s.critical }, "ms")
	set("auto.dsmc_critical_share", func(s stageMs) float64 {
		if s.dsmcCritical {
			return 1
		}
		return 0
	}, "ratio")
	set("core.certify_ms", func(s stageMs) float64 { return s.certify }, "ms")
	set("core.certify_lp_solves", func(s stageMs) float64 { return s.certifyLPs }, "count")
	set("build.traced_wall_ms", func(s stageMs) float64 { return s.wall }, "ms")
	set("build.unaccounted_ms", func(s stageMs) float64 { return s.unaccounted }, "ms")
	set("build.unaccounted_share", func(s stageMs) float64 { return ratio(s.unaccounted, s.wall) }, "ratio")
	set("build.alloc_mb", func(s stageMs) float64 { return s.allocMB }, "MiB")
	set("build.gc_cycles", func(s stageMs) float64 { return s.gcCycles }, "count")
	rep.set("build.library_wall_ms", mean(libWall), "ms", len(libWall))
	rep.set("trace.overhead_ms", avg(func(s stageMs) float64 { return s.wall })-mean(libWall), "ms", n)
	rep.set("replay.mismatches", float64(mismatches), "count", 0)
	rep.set("replay.repaired", float64(repaired), "count", 0)
}

// replayVerdict is the outcome of comparing a replay with the library.
type replayVerdict int

const (
	replayMatch         replayVerdict = iota
	replayRepairedBuild               // the library needed a repair attempt: not comparable
	replayMismatch
)

// compareReplay checks a replay against the untraced library result:
// for a build that needed no repair attempt, the replay must have
// certified on its first attempt and returned the same indices in the
// same order.
func compareReplay(lib *mincore.Coreset, idx []int, replayRepaired bool) replayVerdict {
	if lib.Report.Attempts > 1 || len(lib.Report.Fallbacks) > 0 {
		return replayRepairedBuild
	}
	if replayRepaired || !sameInts(idx, lib.Indices) {
		return replayMismatch
	}
	return replayMatch
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

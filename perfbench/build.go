package main

import (
	"fmt"
	"time"

	"mincore"
	"mincore/internal/data"
	"mincore/internal/geom"
)

// buildSpec is one cold-build workload: a closed loop with one caller
// running a fresh mincore.New plus Coreset(eps, Auto) per build, each
// on a new input generated from its own seed.
type buildSpec struct {
	name string
	d    int
	eps  float64
	dirs int // sampled oracle directions
	gen  func(seed int64) []mincore.Point
}

var buildSpecs = map[string]buildSpec{
	// Normal 5-D with n=300 at ε=0.2: ξ≈100 and ≈0.16 s per build on 2
	// cores, of which selection (DG + DSMC ∥ SCMC) is ≈80%.
	"build-select": {name: "build-select", d: 5, eps: 0.2, dirs: 4096,
		gen: func(seed int64) []mincore.Point { return points(data.Normal(300, 5, seed)) }},
	// RoadNetwork stand-in with n=10 000: ξ≈37, and New (Clarkson hull,
	// normalization) is ≈93% of the build.
	"build-hull": {name: "build-hull", d: 3, eps: 0.05, dirs: 2048,
		gen: func(seed int64) []mincore.Point { return points(data.RoadNetwork(10000, seed)) }},
}

const (
	// minBuilds is the fewest builds a run measures, however long
	// they take.
	minBuilds = 30
	// warmups is how many set-up builds a run makes; setup_s is their
	// median. Their inputs do not depend on the workload seed, so
	// set-up time compares across seeds.
	warmups = 5
	// loopCap bounds a run's measuring loop so the process ends well
	// inside three minutes even when builds get much slower.
	loopCap = 140 * time.Second
	// sloMs is the latency limit reads are held to: the server's
	// default slow-request threshold.
	sloMs = 1000.0
)

func points(ds data.Dataset) []mincore.Point {
	out := make([]mincore.Point, len(ds.Points))
	for i, p := range ds.Points {
		out[i] = mincore.Point(p)
	}
	return out
}

// buildSeed derives the input seed of build i (negative i for set-up
// builds) from the workload seed.
func buildSeed(workloadSeed int64, i int) int64 {
	return workloadSeed*1_000_003 + int64(i)
}

// libBuild is one untraced library build.
type libBuild struct {
	cs      *mincore.Coreseter
	q       *mincore.Coreset
	newWall time.Duration
	wall    time.Duration // New + Coreset
	cpu     time.Duration // process CPU time of New + Coreset
	err     error
}

func runLibBuild(pts []mincore.Point, eps float64, opts ...mincore.Option) libBuild {
	var b libBuild
	c0 := selfCPU()
	t0 := time.Now()
	b.cs, b.err = mincore.New(pts, opts...)
	b.newWall = time.Since(t0)
	if b.err == nil {
		b.q, b.err = b.cs.Coreset(eps, mincore.Auto)
	}
	b.wall = time.Since(t0)
	b.cpu = selfCPU() - c0
	if b.err == nil && (b.q.Report == nil || !b.q.Report.Certified) {
		b.err = fmt.Errorf("coreset returned without a certificate")
	}
	return b
}

// checkBuild runs the hull-free oracle on a successful build: every
// normalized input point against the coreset's points.
func checkBuild(orc *oracle, b libBuild, eps float64) (float64, bool) {
	all := make([][]float64, b.cs.N())
	for i := range all {
		all[i] = b.cs.Point(i)
	}
	qs := make([][]float64, len(b.q.Points))
	for i, p := range b.q.Points {
		qs[i] = p
	}
	return orc.accepts(all, qs, eps)
}

// runBuild is the untraced closed loop behind the end-to-end metrics.
func runBuild(cfg config, spec buildSpec, rep *report) error {
	if cfg.trace {
		return runBuildTraced(cfg, spec, rep)
	}
	setup, err := warmUp(cfg, spec)
	if err != nil {
		return err
	}
	orc := newOracle(spec.d, spec.dirs, cfg.seed)
	var wallMs, newMs, cpuMs, sizes, rss []float64
	attempted, failed, withinSLO := 0, 0, 0
	var spent time.Duration
	steal := startSteal()
	loopStart := time.Now()
	for i := 0; (spent.Seconds() < cfg.seconds || attempted < minBuilds) && time.Since(loopStart) < loopCap; i++ {
		pts := spec.gen(buildSeed(cfg.seed, i))
		if err := resetPeakRSS("self"); err != nil {
			return err
		}
		b := runLibBuild(pts, spec.eps)
		peak, err := vmHWM("self")
		if err != nil {
			return err
		}
		rss = append(rss, peak)
		attempted++
		spent += b.wall
		if b.err != nil {
			failed++
			rep.notef("build %d failed: %v", i, b.err)
			wallMs = append(wallMs, inf)
			cpuMs = append(cpuMs, inf)
			continue
		}
		wallMs = append(wallMs, ms(b.wall))
		newMs = append(newMs, ms(b.newWall))
		cpuMs = append(cpuMs, ms(b.cpu))
		sizes = append(sizes, float64(b.q.Size()))
		if loss, ok := checkBuild(orc, b, spec.eps); !ok {
			failed++
			rep.fail("build %d (seed %d): oracle loss %.6g > ε=%g (certified %.6g)",
				i, buildSeed(cfg.seed, i), loss, spec.eps, b.q.Report.CertifiedLoss)
			continue
		}
		if ms(b.wall) <= sloMs {
			withinSLO++
		}
	}
	rep.res.Attempted, rep.res.Failed = attempted, failed
	rep.notef("env cpu_steal_pct=%.2f", steal.pct())
	rep.notef("builds=%d failed=%d within_1s=%d build_wall_s=%.3f oracle_dirs=%d",
		attempted, failed, withinSLO, spent.Seconds(), orc.numDirs())
	rep.notef("wall clock: build p50=%s p90=%s, New p50=%s p90=%s, %.3f builds/s",
		fmtPct(wallMs, 0.5), fmtPct(wallMs, 0.9), fmtPct(newMs, 0.5), fmtPct(newMs, 0.9),
		float64(attempted-failed)/spent.Seconds())
	rep.set("cpu_ms_p50", median(cpuMs), "ms", len(cpuMs))
	rep.set("cpu_ms_mean", mean(cpuMs), "ms", len(cpuMs))
	rep.set("slo_ratio", float64(withinSLO)/float64(attempted), "ratio", attempted)
	rep.set("coreset_size_mean", mean(sizes), "count", len(sizes))
	rep.set("ok_ratio", float64(attempted-failed)/float64(attempted), "ratio", attempted)
	rep.set("setup_s", median(setup), "s", len(setup))
	rep.set("rss_peak_mb", median(rss), "MiB", len(rss))
	return nil
}

// warmUp makes the set-up builds and returns the CPU time of each, in
// seconds, input generation included.
func warmUp(cfg config, spec buildSpec) ([]float64, error) {
	var setup []float64
	for i := 1; i <= warmups; i++ {
		c0 := selfCPU()
		b := runLibBuild(spec.gen(buildSeed(0, -i)), spec.eps)
		if b.err != nil {
			return nil, fmt.Errorf("set-up build %d: %w", i, b.err)
		}
		setup = append(setup, (selfCPU() - c0).Seconds())
	}
	return setup, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

var inf = 1e308 // stands for a failed operation in a latency sample

// constantDim reports whether some coordinate is constant across pts,
// the one input shape New reshapes before normalization.
func constantDim(pts []geom.Vector) bool {
	if len(pts) == 0 {
		return false
	}
	for j := range pts[0] {
		lo, hi := pts[0][j], pts[0][j]
		for _, p := range pts {
			lo = min(lo, p[j])
			hi = max(hi, p[j])
		}
		if hi-lo <= 1e-12*max(-lo, hi, -hi, lo) {
			return true
		}
	}
	return false
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mincore/internal/data"
	"mincore/internal/obs"
)

// serve-mixed: an open loop on a fixed schedule against a real mcserve
// process. Two tenants are created over HTTP and prefilled; then one
// connection sends ingest batches (alternating tenants) and a second
// sends /coreset queries (alternating tenants, ε cycling), each request
// timed from the moment it was due.

type tenantSpec struct {
	id     string
	d      int
	weight float64
}

var serveTenants = []tenantSpec{{id: "a", d: 4, weight: 1}, {id: "b", d: 3, weight: 2}}

const (
	prefillPoints = 20000
	prefillBatch  = 1000
	ingestBatch   = 100
	ingestEvery   = 25 * time.Millisecond // 40 batches/s across both tenants
	setups        = 3                     // server set-ups per run; setup_s is their median
	reqTimeout    = 30 * time.Second
)

// The query schedule repeats every queryCycle: one query to tenant a,
// then, after a gap longer than a's slowest served build, five queries
// to tenant b. Both connections stay below saturation, so a query waits
// only for its own build; a served build for a (d=4, ≈0.2–0.5 s) takes
// several times one for b (d=3, ≈40 ms). At one a-query in six, the
// median is a b-query and p90 falls inside a's ε=0.1 builds, not on the
// edge between two latency modes, and builds keep the server's cores
// busy about a third of the time, so most ingest acks meet no build.
// ε cycles 0.05, 0.1, 0.2 separately for each tenant.
const (
	queryCycle = 1500 * time.Millisecond
	minQueries = 100 // the printed wall-clock p90 needs ten samples beyond it
)

var (
	queryOffsets = []time.Duration{0, 700 * time.Millisecond, 860 * time.Millisecond,
		1020 * time.Millisecond, 1180 * time.Millisecond, 1340 * time.Millisecond}
	queryEps = []float64{0.05, 0.1, 0.2}
)

// querySlot returns query k's due offset, tenant index and ε.
func querySlot(k int) (time.Duration, int, float64) {
	c, j := k/len(queryOffsets), k%len(queryOffsets)
	due := time.Duration(c)*queryCycle + queryOffsets[j]
	if j == 0 {
		return due, 0, queryEps[c%len(queryEps)]
	}
	n := c*(len(queryOffsets)-1) + j - 1 // tenant b's query count so far
	return due, 1, queryEps[n%len(queryEps)]
}

// window returns the measured duration: the requested seconds, stretched
// to cover the first minQueries queries' due times.
func window(seconds float64) time.Duration {
	d := time.Duration(seconds * float64(time.Second))
	last, _, _ := querySlot(minQueries - 1)
	return max(d, last+time.Millisecond)
}

// phaseCount counts one phase's requests.
type phaseCount struct{ sent, ok, failed int }

func (p *phaseCount) add(ok bool) {
	p.sent++
	if ok {
		p.ok++
	} else {
		p.failed++
	}
}

// server is one running mcserve process.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan error // receives the process's exit
	log  *os.File
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches mcserve with its defaults, a snapshot directory
// under dir, and -dim for the default tenant (required by the binary;
// the benchmark's tenants are created over HTTP).
func startServer(bin, dir string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "mcserve.log"))
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-addr", addr, "-dim", "4", "-snapshot-dir", filepath.Join(dir, "snap"))
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start mcserve: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan error, 1), log: logf}
	go func() { s.done <- cmd.Wait() }()
	return s, nil
}

// waitReady polls /readyz until it answers 200.
func (s *server) waitReady(c *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.done:
			s.done <- err
			return fmt.Errorf("mcserve exited during start-up: %v", err)
		default:
		}
		resp, err := c.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("mcserve not ready after %v", timeout)
}

// stop sends SIGTERM (graceful drain and final checkpoint) and waits
// for the process to end, killing it if the drain overruns.
func (s *server) stop() error {
	defer s.log.Close()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.done:
		return err
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
		return fmt.Errorf("mcserve did not drain within 30s; killed")
	}
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: reqTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// do sends one request and returns its status and body.
func do(c *http.Client, method, url string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// tenantData is the generated stream of one tenant and what the server
// acknowledged of it, in acknowledgement order.
type tenantData struct {
	spec    tenantSpec
	pts     [][]float64 // the whole generated stream
	next    int         // index of the first unsent point
	batches [][][]float64
	acked   atomic.Int64 // points acknowledged
	seed    int64        // the tenant's seed as the server reports it
	eps     float64      // the tenant's default ε (sketch sizing)
	alpha   float64
}

// take returns the next n points of the stream.
func (t *tenantData) take(n int) [][]float64 {
	b := t.pts[t.next : t.next+n]
	t.next += n
	return b
}

// serveRun is one run's mutable state.
type serveRun struct {
	cfg     config
	srv     *server
	ingestC *http.Client
	queryC  *http.Client
	tenants []*tenantData

	setupCount, ingestCount, queryCount phaseCount
}

// setUp starts a server, creates the tenants and prefills them. It
// returns the elapsed time from launch to the end of the prefill.
func (r *serveRun) setUp(dir string) (time.Duration, error) {
	for _, t := range r.tenants {
		t.next, t.batches = 0, nil
		t.acked.Store(0)
	}
	t0 := time.Now()
	srv, err := startServer(r.cfg.mcserve, dir)
	if err != nil {
		return 0, err
	}
	r.srv = srv
	if err := srv.waitReady(r.ingestC, 60*time.Second); err != nil {
		r.setupCount.add(false)
		return 0, err
	}
	for _, t := range r.tenants {
		code, body, err := do(r.ingestC, "POST", srv.base+"/v1/tenants",
			map[string]any{"id": t.spec.id, "dim": t.spec.d, "weight": t.spec.weight})
		r.setupCount.add(err == nil && code == http.StatusCreated)
		if err != nil || code != http.StatusCreated {
			return 0, fmt.Errorf("create tenant %s: %d %s %v", t.spec.id, code, body, err)
		}
		var info struct {
			Seed  int64   `json:"seed"`
			Eps   float64 `json:"eps"`
			Alpha float64 `json:"alpha"`
		}
		if err := json.Unmarshal(body, &info); err != nil {
			return 0, fmt.Errorf("tenant %s info: %w", t.spec.id, err)
		}
		t.seed, t.eps, t.alpha = info.Seed, info.Eps, info.Alpha
	}
	for _, t := range r.tenants {
		for sent := 0; sent < prefillPoints; sent += prefillBatch {
			b := t.take(prefillBatch)
			code, body, err := do(r.ingestC, "POST", srv.base+"/v1/tenants/"+t.spec.id+"/ingest",
				map[string]any{"points": b})
			ok := err == nil && code == http.StatusAccepted
			r.setupCount.add(ok)
			if !ok {
				return 0, fmt.Errorf("prefill %s: %d %s %v", t.spec.id, code, body, err)
			}
			t.batches = append(t.batches, b)
			t.acked.Add(int64(len(b)))
		}
	}
	// The prefill is done when the server has applied it, not just
	// acknowledged it: the measured load starts from a settled sketch.
	for _, t := range r.tenants {
		if err := r.waitApplied(t, 60*time.Second); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// waitApplied polls the tenant's stats until its stream position has
// reached every acknowledged point.
func (r *serveRun) waitApplied(t *tenantData, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		code, body, err := do(r.ingestC, "GET", r.srv.base+"/v1/tenants/"+t.spec.id+"/stats", nil)
		r.setupCount.add(err == nil && code == http.StatusOK)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("stats %s: %d %v", t.spec.id, code, err)
		}
		var st struct {
			StreamN int64 `json:"stream_n"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			return err
		}
		if st.StreamN >= t.acked.Load() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("tenant %s applied %d of %d points after %v", t.spec.id, st.StreamN, t.acked.Load(), timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// ingestRec and queryRec are per-request client records.
type ingestRec struct {
	late, latency time.Duration // send − due, done − due
	ok            bool
}

type queryRec struct {
	tenant        int
	eps           float64
	late, latency time.Duration
	status        int
	body          []byte
	err           error
}

// loopStats is how far an open loop fell behind its schedule: the
// largest number of requests overdue at a send, per half of the run.
type loopStats struct {
	backlog [2]int
}

// grew reports whether the backlog grew from the first half to the
// second.
func (ls loopStats) grew() bool { return ls.backlog[1] > ls.backlog[0]+1 }

// openLoop sends request k at start+due(k) for every due time inside
// dur, one at a time: a late request delays the next, and each is timed
// from its due time. send makes request k and records it.
func openLoop(start time.Time, dur time.Duration, due func(k int) time.Duration, send func(k int, due time.Time), ls *loopStats) {
	for k := 0; due(k) < dur; k++ {
		at := start.Add(due(k))
		time.Sleep(time.Until(at))
		elapsed := time.Since(start)
		overdue := 0
		for j := k + 1; due(j) <= elapsed; j++ {
			overdue++
		}
		half := 0
		if elapsed > dur/2 {
			half = 1
		}
		ls.backlog[half] = max(ls.backlog[half], overdue)
		send(k, at)
	}
}

func (r *serveRun) ingestLoop(start time.Time, dur time.Duration, recs *[]ingestRec, ls *loopStats) {
	due := func(k int) time.Duration { return time.Duration(k) * ingestEvery }
	openLoop(start, dur, due, func(k int, at time.Time) {
		sent := time.Now()
		t := r.tenants[k%len(r.tenants)]
		b := t.take(ingestBatch)
		code, _, err := do(r.ingestC, "POST", r.srv.base+"/v1/tenants/"+t.spec.id+"/ingest",
			map[string]any{"points": b})
		ok := err == nil && code == http.StatusAccepted
		if ok {
			t.batches = append(t.batches, b)
			t.acked.Add(int64(len(b)))
		}
		*recs = append(*recs, ingestRec{late: sent.Sub(at), latency: time.Since(at), ok: ok})
	}, ls)
}

func (r *serveRun) queryLoop(start time.Time, dur time.Duration, recs *[]queryRec, ls *loopStats) {
	due := func(k int) time.Duration { d, _, _ := querySlot(k); return d }
	openLoop(start, dur, due, func(k int, at time.Time) {
		sent := time.Now()
		_, ti, eps := querySlot(k)
		url := fmt.Sprintf("%s/v1/tenants/%s/coreset?eps=%g&algo=auto", r.srv.base, r.tenants[ti].spec.id, eps)
		code, body, err := do(r.queryC, "GET", url, nil)
		*recs = append(*recs, queryRec{tenant: ti, eps: eps, late: sent.Sub(at), latency: time.Since(at),
			status: code, body: body, err: err})
	}, ls)
}

// applyLag returns the points acknowledged but not yet applied, summed
// over the tenants.
func (r *serveRun) applyLag(c *http.Client) float64 {
	lag := 0.0
	for _, t := range r.tenants {
		acked := t.acked.Load()
		code, body, err := do(c, "GET", r.srv.base+"/v1/tenants/"+t.spec.id+"/stats", nil)
		if err != nil || code != http.StatusOK {
			continue
		}
		var st struct {
			StreamN int64 `json:"stream_n"`
		}
		if json.Unmarshal(body, &st) == nil {
			lag += float64(acked - st.StreamN)
		}
	}
	return lag
}

// serverSnapshot is one reading of the server's metrics and per-tenant
// stats.
type serverSnapshot struct {
	metrics map[string]float64
	stats   map[string]map[string]any
}

func (r *serveRun) snapshot(c *http.Client) (serverSnapshot, error) {
	code, body, err := do(c, "GET", r.srv.base+"/metrics", nil)
	if err != nil || code != http.StatusOK {
		return serverSnapshot{}, fmt.Errorf("GET /metrics: %d %v", code, err)
	}
	m, err := obs.ParsePrometheus(bytes.NewReader(body))
	if err != nil {
		return serverSnapshot{}, fmt.Errorf("parse /metrics: %w", err)
	}
	snap := serverSnapshot{metrics: m, stats: map[string]map[string]any{}}
	for _, t := range r.tenants {
		code, body, err := do(c, "GET", r.srv.base+"/v1/tenants/"+t.spec.id+"/stats", nil)
		if err != nil || code != http.StatusOK {
			return serverSnapshot{}, fmt.Errorf("GET stats %s: %d %v", t.spec.id, code, err)
		}
		var st map[string]any
		if err := json.Unmarshal(body, &st); err != nil {
			return serverSnapshot{}, err
		}
		snap.stats[t.spec.id] = st
	}
	return snap, nil
}

// runServe runs serve-mixed.
func runServe(cfg config, rep *report) error {
	if cfg.mcserve == "" {
		return errors.New("--mcserve is required")
	}
	tmp := filepath.Join(cfg.out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(tmp, "serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fs := fsType(dir)
	rep.notef("env wal_dir_fs=%s", fs)

	dur := window(cfg.seconds)
	perTenant := prefillPoints + (int(dur/ingestEvery)/len(serveTenants)+2)*ingestBatch
	r := &serveRun{cfg: cfg, ingestC: newClient(), queryC: newClient()}
	for i, ts := range serveTenants {
		ds := data.Normal(perTenant, ts.d, cfg.seed*7919+int64(i))
		pts := make([][]float64, len(ds.Points))
		for j, p := range ds.Points {
			pts[j] = p
		}
		r.tenants = append(r.tenants, &tenantData{spec: ts, pts: pts})
	}

	// Set-up: start→ready, tenant creation and prefill, several times;
	// the last server carries the measured load.
	var setupS, setupCPU []float64
	for i := 0; i < setups; i++ {
		sdir := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			return err
		}
		d, err := r.setUp(sdir)
		if err != nil {
			if r.srv != nil {
				r.srv.stop()
				r.srv = nil
			}
			return fmt.Errorf("set-up %d: %w", i, err)
		}
		// The server's CPU time so far is the set-up's cost: start-up,
		// tenant creation, WAL appends and applying the prefill.
		c, err := procCPU(r.srv.cmd.Process.Pid)
		if err != nil {
			r.srv.stop()
			r.srv = nil
			return err
		}
		setupS = append(setupS, d.Seconds())
		setupCPU = append(setupCPU, c.Seconds())
		if i < setups-1 {
			if err := r.srv.stop(); err != nil {
				return fmt.Errorf("stop set-up server: %w", err)
			}
		}
	}
	srv := r.srv
	if err := resetPeakRSS(fmt.Sprint(srv.cmd.Process.Pid)); err != nil {
		return err
	}
	defer func() {
		if r.srv != nil {
			r.srv.stop()
		}
	}()

	var pollC *http.Client
	var before serverSnapshot
	var lags []float64
	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	if cfg.trace {
		// A third connection reads the server's metrics and stats once
		// a second; the untraced run does not make it.
		pollC = newClient()
		if before, err = r.snapshot(pollC); err != nil {
			return err
		}
	}

	var ingests []ingestRec
	var queries []queryRec
	var ingestLS, queryLS loopStats
	start := time.Now().Add(20 * time.Millisecond)
	// Once a second of load: the server's peak RSS in that second (the
	// kernel's high-water mark, reset after each reading) and, when
	// traced, the apply lag (acknowledged minus applied points).
	pid := fmt.Sprint(srv.cmd.Process.Pid)
	var rssPeaks, cpuCycles []float64
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stopPoll:
				return
			case <-tick.C:
			}
			if v, err := vmHWM(pid); err == nil && resetPeakRSS(pid) == nil {
				rssPeaks = append(rssPeaks, v)
			}
			if cfg.trace {
				lags = append(lags, r.applyLag(pollC))
			}
		}
	}()
	steal := startSteal()
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { defer wg.Done(); r.ingestLoop(start, dur, &ingests, &ingestLS) }()
	go func() { defer wg.Done(); r.queryLoop(start, dur, &queries, &queryLS) }()
	go func() { defer wg.Done(); cpuCycles = sampleCPU(srv.cmd.Process.Pid, start, dur) }()
	wg.Wait()
	elapsed := time.Since(start)
	stealPct := steal.pct()
	rep.notef("env cpu_steal_pct=%.2f", stealPct)
	close(stopPoll)
	pollWG.Wait()

	var after serverSnapshot
	var champions float64
	if cfg.trace {
		if after, err = r.snapshot(pollC); err != nil {
			return err
		}
		for _, t := range r.tenants {
			code, body, err := do(pollC, "GET", srv.base+"/v1/tenants/"+t.spec.id+"/summary", nil)
			if err == nil && code == http.StatusOK {
				var s struct {
					Size int `json:"size"`
				}
				if json.Unmarshal(body, &s) == nil {
					champions += float64(s.Size)
				}
			}
		}
	}
	stopStart := time.Now()
	stopErr := srv.stop()
	r.srv = nil
	if stopErr != nil {
		rep.notef("mcserve shutdown: %v", stopErr)
	}

	// Everything below runs after the measured window.
	checkStart := time.Now()
	for _, rec := range ingests {
		r.ingestCount.add(rec.ok)
	}
	chk := r.checkQueries(queries, rep, cfg.trace)
	rep.notef("wall: set-ups %.1fs, load %.1fs, shutdown %.1fs, checks %.1fs",
		sum(setupS), elapsed.Seconds(), checkStart.Sub(stopStart).Seconds(), time.Since(checkStart).Seconds())

	attempted := r.setupCount.sent + r.ingestCount.sent + r.queryCount.sent
	failed := r.setupCount.failed + r.ingestCount.failed + r.queryCount.failed
	rep.res.Attempted, rep.res.Failed = attempted, failed
	for name, p := range map[string]phaseCount{"setup": r.setupCount, "ingest": r.ingestCount, "query": r.queryCount} {
		rep.notef("phase %-6s sent=%d succeeded=%d failed=%d", name, p.sent, p.ok, p.failed)
	}
	ingestLate, ingestLat := make([]float64, 0, len(ingests)), make([]float64, 0, len(ingests))
	for _, rec := range ingests {
		ingestLate = append(ingestLate, ms(rec.late))
		if rec.ok {
			ingestLat = append(ingestLat, ms(rec.latency))
		} else {
			ingestLat = append(ingestLat, inf)
		}
	}
	queryLate := make([]float64, 0, len(queries))
	for _, q := range queries {
		queryLate = append(queryLate, ms(q.late))
	}
	rep.notef("generator ingest late p50=%.3fms p99=%s backlog 1st/2nd half=%d/%d grew=%v",
		median(ingestLate), fmtPct(ingestLate, 0.99), ingestLS.backlog[0], ingestLS.backlog[1], ingestLS.grew())
	rep.notef("generator query late p50=%.3fms p90=%s backlog 1st/2nd half=%d/%d grew=%v",
		median(queryLate), fmtPct(queryLate, 0.9), queryLS.backlog[0], queryLS.backlog[1], queryLS.grew())
	rep.notef("served checks: oracle-checked=%d membership-only=%d size-mean=%.2f", chk.oracleChecked, chk.membershipOnly, mean(chk.sizes))
	for ti, t := range r.tenants {
		for _, e := range queryEps {
			var svc []float64
			for _, q := range queries {
				if q.tenant == ti && q.eps == e {
					svc = append(svc, ms(q.latency-q.late))
				}
			}
			rep.notef("query service time tenant=%s ε=%g median=%.1fms n=%d", t.spec.id, e, median(svc), len(svc))
		}
	}

	rep.notef("wall clock: query p50=%s p90=%s, ingest p50=%s p90=%s p99=%s, %.3f answered requests/s",
		fmtPct(chk.latency, 0.5), fmtPct(chk.latency, 0.9), fmtPct(ingestLat, 0.5), fmtPct(ingestLat, 0.9),
		fmtPct(ingestLat, 0.99), float64(r.ingestCount.ok+chk.answered)/elapsed.Seconds())
	if !cfg.trace {
		rep.set("cpu_ms_p50", median(cpuCycles), "ms", len(cpuCycles))
		rep.set("cpu_ms_mean", mean(cpuCycles), "ms", len(cpuCycles))
		rep.set("slo_ratio", float64(chk.withinSLO)/float64(len(queries)), "ratio", len(queries))
		rep.set("coreset_size_mean", mean(chk.sizes), "count", len(chk.sizes))
		rep.set("ok_ratio", float64(attempted-failed)/float64(attempted), "ratio", attempted)
		rep.set("setup_s", median(setupCPU), "s", len(setupCPU))
		rep.set("rss_peak_mb", median(rssPeaks), "MiB", len(rssPeaks))
		return nil
	}

	// Traced run: server-side layer deltas plus client timings.
	dm := func(name string) float64 { return sumSeries(after.metrics, name) - sumSeries(before.metrics, name) }
	dh := func(name string) float64 { return 1000 * ratio(dm(name+"_sum"), dm(name+"_count")) }
	dstat := func(key string) float64 {
		v := 0.0
		for _, t := range r.tenants {
			v += num(after.stats[t.spec.id][key]) - num(before.stats[t.spec.id][key])
		}
		return v
	}
	vals := map[string]float64{
		"wal.append_ms_mean":                 dh("mincore_wal_append_seconds"),
		"wal.fsync_ms_mean":                  dh("mincore_wal_fsync_seconds"),
		"wal.fsyncs_per_batch":               ratio(dm("mincore_wal_fsyncs_total"), dm("mincore_wal_appends_total")),
		"stream.apply_lag_points_p50":        median(lags),
		"stream.apply_lag_points_max":        maxOf(lags),
		"stream.champion_updates_per_kpoint": 1000 * ratio(dm("mincore_stream_champion_updates_total"), dm("mincore_stream_points_total")),
		"stream.champions":                   champions,
		"serve.cache_hit_ratio":              ratio(dstat("cache_hits"), dstat("cache_hits")+dstat("cache_misses")),
		"serve.builds":                       dstat("builds"),
		"serve.build_ms_mean":                dh("mincore_serve_build_duration_seconds"),
		"sched.wait_ms_mean":                 dh("mincore_sched_queue_wait_seconds"),
		"sched.shed":                         dstat("builds_shed"),
		"snapshot.checkpoint_ms_mean":        dh("mincore_checkpoint_duration_seconds"),
		"snapshot.checkpoints":               dm("mincore_checkpoint_saves_total"),
		"http.ingest_server_ms_mean":         1000 * ratio(routeDelta(before, after, "_sum", "POST /v1/tenants/{id}/ingest"), routeDelta(before, after, "_count", "POST /v1/tenants/{id}/ingest")),
		"http.coreset_server_ms_mean":        1000 * ratio(routeDelta(before, after, "_sum", "GET /v1/tenants/{id}/coreset"), routeDelta(before, after, "_count", "GET /v1/tenants/{id}/coreset")),
		"http.ingest_client_ms_mean":         mean(okOnly(ingestLat)),
		"http.coreset_client_ms_mean":        mean(okOnly(chk.latency)),
		"gen.ingest_late_ms_p50":             median(ingestLate),
		"gen.query_late_ms_p50":              median(queryLate),
		"gen.ingest_backlog_max":             float64(max(ingestLS.backlog[0], ingestLS.backlog[1])),
		"gen.query_backlog_max":              float64(max(queryLS.backlog[0], queryLS.backlog[1])),
		"gen.backlog_grew":                   boolNum(ingestLS.grew() || queryLS.grew()),
		"serve.oracle_checked":               float64(chk.oracleChecked),
		"serve.membership_only":              float64(chk.membershipOnly),
	}
	if v, err := percentile(ingestLat, 0.99); err == nil {
		vals["serve.ingest_ms_p99"] = v
	}
	if v, err := percentile(ingestLate, 0.99); err == nil {
		vals["gen.ingest_late_ms_p99"] = v
	}
	if v, err := percentile(queryLate, 0.9); err == nil {
		vals["gen.query_late_ms_p90"] = v
	}
	for _, p := range []struct {
		name string
		c    phaseCount
	}{{"setup", r.setupCount}, {"ingest", r.ingestCount}, {"query", r.queryCount}} {
		vals["phase."+p.name+"_sent"] = float64(p.c.sent)
		vals["phase."+p.name+"_succeeded"] = float64(p.c.ok)
		vals["phase."+p.name+"_failed"] = float64(p.c.failed)
	}
	setServeLayers(rep, vals)
	setWallLayers(rep, chk.latency, ingestLat, stealPct)
	if len(chk.stages) == 0 {
		setBuildLayers(rep, []stageMs{{}}, []float64{0}, chk.mismatches, 0)
		rep.notef("no served build could be replayed (no exact champion reconstruction)")
	} else {
		setBuildLayers(rep, chk.stages, chk.libWall, chk.mismatches, 0)
	}
	return nil
}

// serveLayerNames lists the serve-path per-layer metrics with units.
// The build workloads report them as 0: they touch none of these
// layers.
var serveLayerNames = []struct{ name, unit string }{
	{"wal.append_ms_mean", "ms"}, {"wal.fsync_ms_mean", "ms"}, {"wal.fsyncs_per_batch", "ratio"},
	{"stream.apply_lag_points_p50", "count"}, {"stream.apply_lag_points_max", "count"},
	{"stream.champion_updates_per_kpoint", "count"}, {"stream.champions", "count"},
	{"serve.cache_hit_ratio", "ratio"}, {"serve.builds", "count"}, {"serve.build_ms_mean", "ms"},
	{"serve.ingest_ms_p99", "ms"}, {"serve.oracle_checked", "count"}, {"serve.membership_only", "count"},
	{"sched.wait_ms_mean", "ms"}, {"sched.shed", "count"},
	{"snapshot.checkpoint_ms_mean", "ms"}, {"snapshot.checkpoints", "count"},
	{"http.ingest_server_ms_mean", "ms"}, {"http.coreset_server_ms_mean", "ms"},
	{"http.ingest_client_ms_mean", "ms"}, {"http.coreset_client_ms_mean", "ms"},
	{"gen.ingest_late_ms_p50", "ms"}, {"gen.ingest_late_ms_p99", "ms"},
	{"gen.query_late_ms_p50", "ms"}, {"gen.query_late_ms_p90", "ms"},
	{"gen.ingest_backlog_max", "count"}, {"gen.query_backlog_max", "count"}, {"gen.backlog_grew", "count"},
	{"phase.setup_sent", "count"}, {"phase.setup_succeeded", "count"}, {"phase.setup_failed", "count"},
	{"phase.ingest_sent", "count"}, {"phase.ingest_succeeded", "count"}, {"phase.ingest_failed", "count"},
	{"phase.query_sent", "count"}, {"phase.query_succeeded", "count"}, {"phase.query_failed", "count"},
}

// setWallLayers reports wall-clock latencies of reads (builds or
// queries) and writes (New or ingest acks) with the CPU steal share of
// the run. Wall-clock figures move with steal, so they are diagnostics
// here rather than end-to-end metrics.
func setWallLayers(rep *report, read, write []float64, stealPct float64) {
	read, write = okOnly(read), okOnly(write)
	rep.set("wall.read_ms_p50", median(read), "ms", len(read))
	rep.set("wall.read_ms_mean", mean(read), "ms", len(read))
	rep.set("wall.write_ms_p50", median(write), "ms", len(write))
	rep.set("wall.write_ms_mean", mean(write), "ms", len(write))
	rep.set("env.cpu_steal_pct", stealPct, "%", 0)
}

// setServeLayers reports every serve-path layer metric, 0 where vals
// has none.
func setServeLayers(rep *report, vals map[string]float64) {
	for _, m := range serveLayerNames {
		rep.set(m.name, vals[m.name], m.unit, 0)
	}
}

// sumSeries adds every series of a metric (all label sets) from a
// parsed exposition, counting the unlabeled aggregate only when it is
// the sole series.
func sumSeries(m map[string]float64, name string) float64 {
	total, labeled := 0.0, false
	for k, v := range m {
		if strings.HasPrefix(k, name+"{") {
			total += v
			labeled = true
		}
	}
	if !labeled {
		return m[name]
	}
	return total
}

// routeDelta is the change of one HTTP route histogram's _sum or _count.
func routeDelta(before, after serverSnapshot, suffix, route string) float64 {
	key := fmt.Sprintf(`mincore_http_request_duration_seconds%s{route="%s"}`, suffix, route)
	return after.metrics[key] - before.metrics[key]
}

func num(v any) float64 {
	f, _ := v.(float64)
	return f
}

func boolNum(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func okOnly(xs []float64) []float64 {
	var out []float64
	for _, x := range xs {
		if x < inf {
			out = append(out, x)
		}
	}
	return out
}

// sampleCPU reads the server's CPU clock at every boundary of the query
// schedule's cycle and returns the CPU milliseconds spent in each whole
// cycle: the server's cost of one fixed bundle of requests (one query
// to a, five to b, 60 ingest batches). A cycle is long next to a single
// build, so work a busy server carries over a boundary moves little.
func sampleCPU(pid int, start time.Time, dur time.Duration) []float64 {
	var out []float64
	prev := time.Duration(-1)
	for k := 0; time.Duration(k)*queryCycle <= dur; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * queryCycle)))
		c, err := procCPU(pid)
		if err != nil {
			return out
		}
		if prev >= 0 {
			out = append(out, ms(c-prev))
		}
		prev = c
	}
	return out
}

// fsType names the filesystem holding dir (the WAL's): fsync cost
// depends on it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

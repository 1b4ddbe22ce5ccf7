package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mincore"
	"mincore/internal/obs"
)

// traceResponse mirrors the GET /v1/tenants/{id}/traces payload with
// the span tree kept generic, the way an operator's tooling would
// consume it.
type traceResponse struct {
	Tenant string `json:"tenant"`
	Count  int    `json:"count"`
	Traces []struct {
		ID        string          `json:"id"`
		Route     string          `json:"route"`
		Status    int             `json:"status"`
		Anomalies []string        `json:"anomalies"`
		Trace     json.RawMessage `json:"trace"`
	} `json:"traces"`
}

// spanNames flattens every span name in a serialized trace.
func spanNames(raw json.RawMessage) []string {
	var tr struct {
		Root json.RawMessage `json:"root"`
	}
	if json.Unmarshal(raw, &tr) != nil {
		return nil
	}
	var walk func(json.RawMessage) []string
	walk = func(node json.RawMessage) []string {
		var s struct {
			Name     string            `json:"name"`
			Children []json.RawMessage `json:"children"`
		}
		if json.Unmarshal(node, &s) != nil {
			return nil
		}
		out := []string{s.Name}
		for _, c := range s.Children {
			out = append(out, walk(c)...)
		}
		return out
	}
	return walk(tr.Root)
}

func hasName(names []string, want string) bool {
	for _, n := range names {
		if n == want {
			return true
		}
	}
	return false
}

func getTraces(t *testing.T, ts *httptest.Server, path string) traceResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	var tr traceResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatalf("decode traces: %v", err)
	}
	return tr
}

// TestTraceEndToEndHTTP is the acceptance walk of the tracing layer:
// one X-Request-Id survives from the front door through scheduler
// admission and the build span tree, and the finished trace is
// retrievable from the per-tenant store after the fact.
func TestTraceEndToEndHTTP(t *testing.T) {
	store := obs.NewTraceStore(obs.StoreOptions{Retain: 16})
	ts, _ := newTestServer(t, mincore.RegistryOptions{
		Dim: 2, Eps: 0.1, Seed: 7, MaxInflightBuilds: 2, TraceStore: store,
	})

	pts := make([][]float64, 0, 64)
	for i := 0; i < 64; i++ {
		pts = append(pts, []float64{float64(i%17) / 17, float64((i*7)%13) / 13})
	}
	body, _ := json.Marshal(map[string]any{"points": pts})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/tenants/default/ingest", bytes.NewReader(body))
	req.Header.Set("X-Request-Id", "ingest-e2e-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "ingest-e2e-1" {
		t.Fatalf("ingest echoed X-Request-Id %q", got)
	}

	req, _ = http.NewRequest("GET", ts.URL+"/v1/tenants/default/coreset?eps=0.2", nil)
	req.Header.Set("X-Request-Id", "coreset-e2e-1")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("coreset: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coreset status %d", resp.StatusCode)
	}

	tr := getTraces(t, ts, "/v1/tenants/default/traces")
	byID := map[string]int{}
	for i, r := range tr.Traces {
		byID[r.ID] = i
	}
	ing, ok := byID["ingest-e2e-1"]
	if !ok {
		t.Fatalf("ingest trace not retained; got IDs %v", byID)
	}
	if got := tr.Traces[ing].Route; got != "POST /v1/tenants/{id}/ingest" {
		t.Errorf("ingest route = %q, want normalized {id} form", got)
	}
	if names := spanNames(tr.Traces[ing].Trace); !hasName(names, "ingest-admit") {
		t.Errorf("ingest trace spans = %v, want ingest-admit", names)
	}

	cor, ok := byID["coreset-e2e-1"]
	if !ok {
		t.Fatalf("coreset trace not retained; got IDs %v", byID)
	}
	names := spanNames(tr.Traces[cor].Trace)
	for _, want := range []string{"sched-wait", "grant-to-start", "build"} {
		if !hasName(names, want) {
			t.Errorf("coreset trace spans = %v, want %s", names, want)
		}
	}
}

// TestTraceAnomalyRetentionHTTP: a 5xx answer (deadline-killed build)
// is flagged as an anomaly, always retained, and visible through the
// anomalies-only view — that is the flight-recorder contract at the
// HTTP surface.
func TestTraceAnomalyRetentionHTTP(t *testing.T) {
	store := obs.NewTraceStore(obs.StoreOptions{Retain: 4})
	ts, _ := newTestServer(t, mincore.RegistryOptions{
		Dim: 2, Eps: 0.1, Seed: 3, TraceStore: store,
	})
	feedPoints(t, ts, "/v1/tenants/default/ingest", [][]float64{{0.1, 0.2}, {0.3, 0.4}, {0.9, 0.5}})

	req, _ := http.NewRequest("GET", ts.URL+"/v1/tenants/default/coreset?eps=0.2&timeout=1ns", nil)
	req.Header.Set("X-Request-Id", "doomed-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("coreset: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("1ns build status = %d, want 504", resp.StatusCode)
	}

	tr := getTraces(t, ts, "/v1/tenants/default/traces?anomalies=1")
	found := false
	for _, r := range tr.Traces {
		if r.ID == "doomed-1" {
			found = true
			if r.Status != http.StatusGatewayTimeout {
				t.Errorf("anomaly status = %d", r.Status)
			}
			ok := false
			for _, a := range r.Anomalies {
				if a == "error" {
					ok = true
				}
			}
			if !ok {
				t.Errorf("anomalies = %v, want error", r.Anomalies)
			}
		}
	}
	if !found {
		t.Fatalf("doomed-1 not in anomaly ring: %+v", tr.Traces)
	}

	// A hostile request ID is discarded, not echoed.
	req, _ = http.NewRequest("GET", ts.URL+"/v1/tenants/default/stats", nil)
	req.Header.Set("X-Request-Id", "bad id with spaces")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got == "" || strings.Contains(got, " ") {
		t.Errorf("sanitized X-Request-Id = %q, want a minted hex ID", got)
	}
}

// TestTraceSlowThresholdHTTP: requests slower than the store threshold
// are promoted to the anomaly ring with the "slow" flag, carrying the
// full span tree for after-the-fact latency attribution.
func TestTraceSlowThresholdHTTP(t *testing.T) {
	store := obs.NewTraceStore(obs.StoreOptions{Retain: 4, SlowThreshold: time.Nanosecond})
	ts, _ := newTestServer(t, mincore.RegistryOptions{
		Dim: 2, Eps: 0.1, Seed: 5, TraceStore: store,
	})
	feedPoints(t, ts, "/v1/tenants/default/ingest", [][]float64{{0.5, 0.5}})

	tr := getTraces(t, ts, "/v1/tenants/default/traces?anomalies=1")
	if tr.Count == 0 {
		t.Fatal("no slow-flagged traces with a 1ns threshold")
	}
	for _, r := range tr.Traces {
		ok := false
		for _, a := range r.Anomalies {
			if a == obs.AnomalySlow {
				ok = true
			}
		}
		if !ok {
			t.Errorf("trace %s anomalies = %v, want slow", r.ID, r.Anomalies)
		}
	}
}

// TestTraceEndpointsDisabled: -trace-retain 0 (nil store) turns the
// trace surface off cleanly — no X-Request-Id minting, 404 on the
// trace endpoints — while the request keeps being served.
func TestTraceEndpointsDisabled(t *testing.T) {
	ts, _ := newTestServer(t, mincore.RegistryOptions{Dim: 2, Eps: 0.1, Seed: 9})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "" {
		t.Errorf("tracing off but X-Request-Id = %q", got)
	}
	for _, path := range []string{"/v1/tenants/default/traces", "/debug/traces"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		var env struct {
			Error struct{ Code string } `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || env.Error.Code != "tracing_disabled" {
			t.Errorf("GET %s = %d %q, want 404 tracing_disabled", path, resp.StatusCode, env.Error.Code)
		}
	}
}

// TestHTTPMetricsAndRuntimeGauges: the middleware's request counter
// and duration histogram land on /metrics with bounded route labels,
// the runtime health gauges are exposed and fresh, and the duration
// histogram's JSON exposition carries the latest trace ID as an
// exemplar.
func TestHTTPMetricsAndRuntimeGauges(t *testing.T) {
	store := obs.NewTraceStore(obs.StoreOptions{Retain: 4})
	ts, _ := newTestServer(t, mincore.RegistryOptions{
		Dim: 2, Eps: 0.1, Seed: 11, TraceStore: store,
	})
	req, _ := http.NewRequest("GET", ts.URL+"/v1/tenants/default/stats", nil)
	req.Header.Set("X-Request-Id", "metrics-exemplar-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	text := string(raw)
	for _, want := range []string{
		`mincore_http_requests_total{`,
		`route="GET /v1/tenants/{id}/stats"`,
		"mincore_http_request_duration_seconds",
		"mincore_runtime_goroutines",
		"mincore_runtime_heap_inuse_bytes",
		"mincore_runtime_gc_pause_last_ns",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Exemplars stay off the text format — the strict scrape parser
	// must keep round-tripping.
	if strings.Contains(text, "metrics-exemplar-1") {
		t.Error("exemplar leaked into the Prometheus text exposition")
	}
	if _, err := obs.ParsePrometheus(strings.NewReader(text)); err != nil {
		t.Errorf("/metrics no longer parses: %v", err)
	}

	snap := obs.Default.Snapshot()
	fam, ok := snap["mincore_http_request_duration_seconds"]
	if !ok {
		t.Fatal("duration histogram not in JSON exposition")
	}
	found := false
	for _, s := range fam.Series {
		if s.Exemplar != nil && s.Exemplar.TraceID == "metrics-exemplar-1" {
			found = true
		}
	}
	if !found {
		t.Error("duration histogram carries no exemplar for metrics-exemplar-1")
	}
}

// TestDebugTracesEndpoint: the fleet-wide view returns the store's
// admission counters plus every tenant's retained traces.
func TestDebugTracesEndpoint(t *testing.T) {
	store := obs.NewTraceStore(obs.StoreOptions{Retain: 4})
	ts, _ := newTestServer(t, mincore.RegistryOptions{
		Dim: 2, Eps: 0.1, Seed: 13, TraceStore: store,
	})
	feedPoints(t, ts, "/v1/tenants/default/ingest", [][]float64{{0.2, 0.8}})

	resp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatalf("debug/traces: %v", err)
	}
	defer resp.Body.Close()
	var out struct {
		Stats   obs.StoreStats             `json:"stats"`
		Tenants map[string]json.RawMessage `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.Stats.Added == 0 {
		t.Error("store admission counters empty")
	}
	if _, ok := out.Tenants["default"]; !ok {
		t.Errorf("tenants = %v, want default", out.Tenants)
	}
}

// TestRouteLabelTable: the path normalizer keeps label cardinality
// bounded no matter what clients send.
func TestRouteLabelTable(t *testing.T) {
	cases := []struct {
		method, path, want string
	}{
		{"GET", "/v1/tenants/acme/coreset", "GET /v1/tenants/{id}/coreset"},
		{"POST", "/v1/tenants/%24weird/ingest", "POST /v1/tenants/{id}/ingest"},
		{"GET", "/v1/tenants/acme", "GET /v1/tenants/{id}"},
		{"DELETE", "/v1/tenants/acme", "DELETE /v1/tenants/{id}"},
		{"GET", "/v1/tenants/acme/traces", "GET /v1/tenants/{id}/traces"},
		{"POST", "/v1/tenants", "POST /v1/tenants"},
		{"GET", "/v1/stats", "GET /v1/stats"},
		{"POST", "/ingest", "other"},
		{"GET", "/debug/pprof/heap", "GET /debug/pprof/*"},
		{"GET", "/v1/tenants/acme/nonsense", "other"},
		{"GET", "/totally/unknown", "other"},
		{"GET", "/v1/tenants/a/b/c", "other"},
	}
	for _, c := range cases {
		if got := routeLabel(c.method, c.path); got != c.want {
			t.Errorf("routeLabel(%s, %s) = %q, want %q", c.method, c.path, got, c.want)
		}
	}
	// Unversioned tenant paths are not routes.
	ts, _ := newTestServer(t, mincore.RegistryOptions{Dim: 2, Seed: 1})
	resp, err := http.Post(ts.URL+"/ingest", "application/json",
		strings.NewReader(`{"points": [[0.1, 0.2]]}`))
	if err != nil {
		t.Fatalf("POST /ingest: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /ingest: status %d, want 404", resp.StatusCode)
	}
	if got := tenantFromPath("/v1/tenants/acme/ingest"); got != "acme" {
		t.Errorf("tenantFromPath = %q", got)
	}
	if got := tenantFromPath("/healthz"); got != "" {
		t.Errorf("untenanted tenantFromPath = %q", got)
	}
	for in, want := range map[string]string{
		"ok-id_1.2": "ok-id_1.2",
		"":          "",
		"has space": "",
		"way-too-long-" + strings.Repeat("x", 64): "",
	} {
		if got := sanitizeTraceID(in); got != want {
			t.Errorf("sanitizeTraceID(%q) = %q, want %q", in, got, want)
		}
	}
}

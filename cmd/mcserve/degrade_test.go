package main

// Degraded-mode HTTP tests: readiness with per-tenant health, the
// quarantine/recover lifecycle over the API, the hardened front door's
// body-size limits, and the new degraded-mode metric families.

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mincore"
	"mincore/internal/obs"
)

// corruptTenantDir plants an on-disk tenant whose manifest is garbage,
// so the registry quarantines it at startup.
func corruptTenantDir(t *testing.T, root, id string) {
	t.Helper()
	dir := filepath.Join(root, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "tenant.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestQuarantineLifecycleHTTP drives a corrupt tenant through the
// degraded-mode API: the pod boots and is ready (one sick tenant must
// not read as a fleet outage), the sick tenant is inspectable, refuses
// data-plane requests with the typed 503, and comes back via POST
// recover without a restart.
func TestQuarantineLifecycleHTTP(t *testing.T) {
	dir := t.TempDir()
	corruptTenantDir(t, dir, "sick")
	ts, _ := newTestServer(t, mincore.RegistryOptions{
		Dim: 2, Eps: 0.1, Seed: 7, SnapshotDir: dir,
	})

	// Readiness: 200, degraded overall, with per-tenant state rows.
	resp, body := doJSON(t, ts, "GET", "/readyz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz status = %d, want 200 despite quarantine", resp.StatusCode)
	}
	if body["status"] != "degraded" {
		t.Errorf("/readyz status field = %v, want degraded", body["status"])
	}
	counts, _ := body["counts"].(map[string]any)
	if counts["quarantined"] != 1.0 || counts["ok"] != 1.0 {
		t.Errorf("/readyz counts = %v, want 1 quarantined / 1 ok", counts)
	}

	// The quarantined tenant is inspectable (200 + health), but its data
	// plane answers the typed 503.
	resp, body = doJSON(t, ts, "GET", "/v1/tenants/sick", nil)
	if resp.StatusCode != http.StatusOK || body["state"] != "quarantined" {
		t.Fatalf("GET sick = %d %v, want 200 quarantined", resp.StatusCode, body)
	}
	health, _ := body["health"].(map[string]any)
	if health["reason"] != "bad_manifest" {
		t.Errorf("quarantine reason = %v, want bad_manifest", health["reason"])
	}
	resp, body = doJSON(t, ts, "GET", "/v1/tenants/sick/coreset?eps=0.2", nil)
	wantEnvelope(t, resp, body, http.StatusServiceUnavailable, "tenant_quarantined")
	resp, body = doJSON(t, ts, "POST", "/v1/tenants/sick/ingest",
		map[string]any{"points": ringPoints(4, 0)})
	wantEnvelope(t, resp, body, http.StatusServiceUnavailable, "tenant_quarantined")

	// Creating over the quarantined id is refused: its on-disk state may
	// still be salvageable.
	resp, body = doJSON(t, ts, "POST", "/v1/tenants", map[string]any{"id": "sick"})
	wantEnvelope(t, resp, body, http.StatusServiceUnavailable, "tenant_quarantined")

	// Recover in place. The manifest is gone and there is no snapshot, so
	// the ladder bottoms out at a stream reset — but the tenant is live.
	resp, body = doJSON(t, ts, "POST", "/v1/tenants/sick/recover", nil)
	if resp.StatusCode != http.StatusOK || body["recovered"] != "sick" {
		t.Fatalf("recover = %d %v", resp.StatusCode, body)
	}
	if body["step"] != "reset_stream" || body["stream_n"] != 0.0 {
		t.Errorf("recover step/stream_n = %v/%v, want reset_stream/0", body["step"], body["stream_n"])
	}
	// Recovering a healthy tenant is an error, not a silent no-op.
	resp, _ = doJSON(t, ts, "POST", "/v1/tenants/sick/recover", nil)
	if resp.StatusCode == http.StatusOK {
		t.Error("recovering a live tenant succeeded")
	}

	// The recovered tenant serves: ingest, build, and readiness is ok.
	feedPoints(t, ts, "/v1/tenants/sick/ingest", ringPoints(64, 3))
	resp, body = doJSON(t, ts, "GET", "/v1/tenants/sick/coreset?eps=0.3", nil)
	if resp.StatusCode != http.StatusOK || body["stale"] != nil {
		t.Fatalf("recovered coreset = %d (stale=%v), want fresh 200", resp.StatusCode, body["stale"])
	}
	if _, body = doJSON(t, ts, "GET", "/readyz", nil); body["status"] != "ok" {
		t.Errorf("/readyz after recover = %v, want ok", body["status"])
	}

	// /v1/stats lists no quarantined tenants anymore and carries the
	// scheduler's watchdog counter.
	_, body = doJSON(t, ts, "GET", "/v1/stats", nil)
	if q, ok := body["quarantined"].([]any); ok && len(q) != 0 {
		t.Errorf("/v1/stats quarantined = %v, want empty", q)
	}
	sched, _ := body["scheduler"].(map[string]any)
	if _, ok := sched["watchdog_kills"]; !ok {
		t.Errorf("/v1/stats scheduler missing watchdog_kills: %v", sched)
	}
}

// TestStaleServingHTTP: with a stale policy configured, a request whose
// own deadline kills the fresh build is answered 200 from the last
// certified coreset — with the stale flag, the staleness metadata block,
// and the Warning header. Degraded mode is visible at every layer.
func TestStaleServingHTTP(t *testing.T) {
	ts, _ := newTestServer(t, mincore.RegistryOptions{
		Dim: 2, Eps: 0.1, Seed: 7,
		StaleServe: mincore.WithStaleServe(time.Hour, 0),
	})
	feedPoints(t, ts, "/v1/tenants/default/ingest", ringPoints(200, 5))

	// Fresh certified build: retained as the (ε, algo) fallback.
	resp, body := doJSON(t, ts, "GET", "/v1/tenants/default/coreset?eps=0.2", nil)
	if resp.StatusCode != http.StatusOK || body["stale"] != nil {
		t.Fatalf("fresh coreset = %d (stale=%v)", resp.StatusCode, body["stale"])
	}

	// Advance the stream, then request with an already-expired deadline:
	// the fresh build cannot run, the fallback serves.
	feedPoints(t, ts, "/v1/tenants/default/ingest", ringPoints(50, 9))
	resp, body = doJSON(t, ts, "GET", "/v1/tenants/default/coreset?eps=0.2&timeout=1ns", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale-eligible request = %d %v, want 200", resp.StatusCode, body)
	}
	if body["stale"] != true {
		t.Fatalf("response not marked stale: %v", body)
	}
	if w := resp.Header.Get("Warning"); !strings.Contains(w, "110") {
		t.Errorf("Warning header = %q, want RFC 9111 110 stale warning", w)
	}
	sm, _ := body["staleness"].(map[string]any)
	if sm == nil {
		t.Fatalf("response has no staleness block: %v", body)
	}
	if sm["reason"] != "deadline" {
		t.Errorf("staleness reason = %v, want deadline", sm["reason"])
	}
	if sm["stream_n"] != 200.0 || sm["points_behind"] != 50.0 {
		t.Errorf("staleness position = %v/%v, want 200/50", sm["stream_n"], sm["points_behind"])
	}
	rep, _ := body["report"].(map[string]any)
	if rep == nil || rep["Stale"] != true {
		t.Errorf("report Stale = %v, want true", rep["Stale"])
	}

	// The tenant's stats count the degraded serve.
	_, st := doJSON(t, ts, "GET", "/v1/tenants/default/stats", nil)
	if st["stale_served"] != 1.0 {
		t.Errorf("stale_served = %v, want 1", st["stale_served"])
	}
}

// TestRequestBodyLimits is the front-door hardening table: ingest bodies
// past -max-body-bytes and control-plane bodies past the fixed 1 MiB cap
// answer 413 request_too_large; everything within limits passes.
func TestRequestBodyLimits(t *testing.T) {
	ts, _ := newTestServer(t, mincore.RegistryOptions{Dim: 2, Eps: 0.1, Seed: 7})

	bigString := strings.Repeat("a", 2<<20) // > createBodyLimit
	bigBatch := make([][]float64, 40_000)   // ~0.5 MiB of JSON > testMaxBody
	for i := range bigBatch {
		bigBatch[i] = []float64{0.25, 0.75}
	}

	for _, tc := range []struct {
		name, method, path string
		body               any
		wantStatus         int
		wantCode           string
	}{
		{"ingest within limit", "POST", "/v1/tenants/default/ingest",
			map[string]any{"points": ringPoints(32, 1)}, http.StatusAccepted, ""},
		{"ingest too large", "POST", "/v1/tenants/default/ingest",
			map[string]any{"points": bigBatch}, http.StatusRequestEntityTooLarge, "request_too_large"},
		{"create within limit", "POST", "/v1/tenants",
			map[string]any{"id": "roomy"}, http.StatusCreated, ""},
		{"create too large", "POST", "/v1/tenants",
			map[string]any{"id": bigString}, http.StatusRequestEntityTooLarge, "request_too_large"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := doJSON(t, ts, tc.method, tc.path, tc.body)
			if tc.wantCode != "" {
				wantEnvelope(t, resp, body, tc.wantStatus, tc.wantCode)
				return
			}
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %v)", resp.StatusCode, tc.wantStatus, body)
			}
		})
	}
}

// TestDegradedMetricFamilies: the degraded-mode counters are registered
// at init, so every scrape exposes the families — a dashboard can alert
// on them before the first incident.
func TestDegradedMetricFamilies(t *testing.T) {
	dir := t.TempDir()
	corruptTenantDir(t, dir, "broken")
	ts, _ := newTestServer(t, mincore.RegistryOptions{
		Dim: 2, Eps: 0.1, Seed: 7, SnapshotDir: dir,
	})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	samples, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("ParsePrometheus: %v", err)
	}
	for _, fam := range []string{
		"mincore_tenants_quarantined",
		"mincore_build_watchdog_kills_total",
		"mincore_stale_serves_total",
	} {
		if _, ok := samples[fam]; !ok {
			t.Errorf("scrape missing %s: %v", fam, samples)
		}
	}
	if v := samples["mincore_tenants_quarantined"]; v < 1 {
		t.Errorf("mincore_tenants_quarantined = %v, want >= 1 with a quarantined tenant", v)
	}
}

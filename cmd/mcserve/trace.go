// Request tracing at the front door: every request gets a trace ID
// (caller-supplied X-Request-Id or freshly minted), a RequestTrace on
// its context that the library hangs spans off — quota admission,
// scheduler queue wait, the build span tree, WAL append+fsync — and,
// when it finishes, a TraceRecord in the bounded per-tenant trace
// store. The middleware also owns the HTTP-level metric families:
// requests by route and status code, and a request-duration histogram
// whose exemplar carries the last trace ID so a latency spike on a
// dashboard links straight to a retained trace.
package main

import (
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"mincore/internal/obs"
)

const (
	helpHTTPRequests = "HTTP requests served, by normalized route and status code."
	helpHTTPDuration = "HTTP request wall time by normalized route, in seconds. The JSON exposition carries the most recent trace ID as an exemplar."
)

// httpSeries caches the per-route metric series so the hot path does
// one sync.Map load instead of a registry lock per request. Route
// labels come from routeLabel, so cardinality is bounded by the route
// table, not by client-supplied paths.
var httpSeries sync.Map // "route\x00code" → *obs.Counter, "route" → *obs.Histogram

func httpRequestCounter(route, code string) *obs.Counter {
	key := route + "\x00" + code
	if c, ok := httpSeries.Load(key); ok {
		return c.(*obs.Counter)
	}
	c := obs.Default.Counter("mincore_http_requests_total", helpHTTPRequests,
		obs.Labels{"route": route, "code": code})
	httpSeries.Store(key, c)
	return c
}

func httpDurationHist(route string) *obs.Histogram {
	if h, ok := httpSeries.Load(route); ok {
		return h.(*obs.Histogram)
	}
	h := obs.Default.Histogram("mincore_http_request_duration_seconds", helpHTTPDuration,
		nil, obs.Labels{"route": route})
	httpSeries.Store(route, h)
	return h
}

// routeLabel normalizes a request path onto the route table so metric
// label cardinality stays bounded: tenant IDs collapse to {id}, pprof
// sub-pages collapse to one label, and anything off the table is
// "other". The outer middleware cannot use ServeMux's matched pattern
// (the mux stamps it on its own request clone, after the middleware
// has run), so this mirrors the table in newMux by hand.
func routeLabel(method, path string) string {
	switch path {
	case "/v1/tenants", "/v1/stats",
		"/healthz", "/readyz", "/metrics", "/debug/vars", "/debug/traces":
		return method + " " + path
	}
	if strings.HasPrefix(path, "/debug/pprof/") {
		return method + " /debug/pprof/*"
	}
	if rest, ok := strings.CutPrefix(path, "/v1/tenants/"); ok {
		_, leaf, found := strings.Cut(rest, "/")
		if !found {
			return method + " /v1/tenants/{id}"
		}
		switch leaf {
		case "ingest", "coreset", "summary", "stats", "snapshot", "recover", "traces":
			return method + " /v1/tenants/{id}/" + leaf
		}
	}
	return "other"
}

// tenantFromPath extracts the tenant a request addresses: the {id}
// path segment on tenant routes, "" for untenanted routes (tenant
// creation, fleet stats, probes).
func tenantFromPath(path string) string {
	if rest, ok := strings.CutPrefix(path, "/v1/tenants/"); ok {
		id, _, _ := strings.Cut(rest, "/")
		return id
	}
	return ""
}

// skipTrace marks the routes whose requests are observed (metrics) but
// not retained (trace store): probes and scrapes arrive on a clock and
// would sample-compete real traffic out of the normal ring.
func skipTrace(path string) bool {
	switch path {
	case "/healthz", "/readyz", "/metrics":
		return true
	}
	return strings.HasPrefix(path, "/debug/")
}

// sanitizeTraceID accepts a caller-supplied X-Request-Id when it is
// short and shell-safe; anything else is discarded so a hostile header
// cannot smuggle bytes into logs, JSON, or diagnostic file names.
func sanitizeTraceID(id string) string {
	if id == "" || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return ""
		}
	}
	return id
}

// statusWriter records the response status for the metrics and the
// trace record. Handlers that never call WriteHeader implicitly send
// 200.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// Flush keeps streaming handlers (pprof profiles) working through the
// wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// withTracing wraps the route table with the request-tracing and
// HTTP-metrics middleware. store may be nil (-trace-retain 0): metrics
// are still recorded, no trace rides the context, and the per-request
// overhead degrades to a clock read and two atomic bumps.
func withTracing(next http.Handler, store *obs.TraceStore) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := routeLabel(r.Method, r.URL.Path)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}

		var rt *obs.RequestTrace
		traced := store != nil && !skipTrace(r.URL.Path)
		if traced {
			rt = obs.StartRequest(route, sanitizeTraceID(r.Header.Get("X-Request-Id")))
			rt.SetTenant(tenantFromPath(r.URL.Path))
			w.Header().Set("X-Request-Id", rt.ID)
			r = r.WithContext(obs.WithRequest(r.Context(), rt))
		}

		next.ServeHTTP(sw, r)

		elapsed := time.Since(start)
		code := strconv.Itoa(sw.status)
		httpRequestCounter(route, code).Inc()
		if rt == nil {
			httpDurationHist(route).Observe(elapsed.Seconds())
			return
		}
		httpDurationHist(route).ObserveExemplar(elapsed.Seconds(), rt.ID)
		if sw.status >= 500 {
			rt.MarkAnomaly("error")
		}
		rt.Root.End()
		rec := &obs.TraceRecord{
			ID:     rt.ID,
			Tenant: rt.Tenant(),
			Route:  route,
			Method: r.Method,
			Status: sw.status,
			Start:  rt.Root.Start, Duration: rt.Root.Duration,
			Anomalies: rt.Anomalies(),
			Trace:     &obs.Trace{Root: rt.Root},
		}
		if sw.status >= 400 {
			rec.Error = http.StatusText(sw.status)
		}
		store.Add(rec)
	})
}

// tenantTraces renders GET /v1/tenants/{id}/traces: the retained
// traces for one tenant, newest-first. Deliberately no existence check
// against the registry — trace records outlive tenant deletion, and a
// post-mortem usually starts after the tenant is gone. ?n= bounds the
// response; ?anomalies=1 restricts it to the always-retained anomaly
// ring.
func (a *apiServer) tenantTraces(w http.ResponseWriter, r *http.Request) {
	if a.traces == nil {
		httpErrorCode(w, http.StatusNotFound, "tracing_disabled",
			"request tracing is disabled (-trace-retain 0)")
		return
	}
	id := r.PathValue("id")
	max := 0
	if v := r.URL.Query().Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			httpErrorCode(w, http.StatusBadRequest, "invalid_argument", "bad n "+strconv.Quote(v))
			return
		}
		max = n
	}
	var recs []*obs.TraceRecord
	anomaliesOnly := false
	switch r.URL.Query().Get("anomalies") {
	case "1", "true":
		anomaliesOnly = true
		recs = a.traces.Anomalies(id, max)
	default:
		recs = a.traces.Tenant(id, max)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"tenant":         id,
		"count":          len(recs),
		"anomalies_only": anomaliesOnly,
		"traces":         recs,
	})
}

// debugTraces renders GET /debug/traces: every tenant's retained
// traces plus the store's admission counters, for operators who do not
// yet know which tenant to look at.
func (a *apiServer) debugTraces(w http.ResponseWriter, r *http.Request) {
	if a.traces == nil {
		httpErrorCode(w, http.StatusNotFound, "tracing_disabled",
			"request tracing is disabled (-trace-retain 0)")
		return
	}
	tenants := map[string]any{}
	for _, id := range a.traces.Tenants() {
		key := id
		if key == "" {
			key = "(untenanted)"
		}
		tenants[key] = a.traces.Tenant(id, 0)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"stats":   a.traces.Stats(),
		"tenants": tenants,
	})
}

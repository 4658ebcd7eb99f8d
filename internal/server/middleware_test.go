package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gallery/internal/api"
	"gallery/internal/blobstore"
	"gallery/internal/client"
	"gallery/internal/clock"
	"gallery/internal/core"
	"gallery/internal/obs"
	obslog "gallery/internal/obs/log"
	"gallery/internal/relstore"
	"gallery/internal/rules"
	"gallery/internal/uuid"
)

// doRaw issues a request against the harness server and returns the status.
func (h *harness) doRaw(t *testing.T, method, path string, body string) int {
	t.Helper()
	req, err := http.NewRequest(method, h.ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := h.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestMiddlewareRecordsRoutesAndStatusClasses drives one request per
// status class and asserts the middleware labels them with the matched
// ServeMux pattern and the status class, and times each route.
func TestMiddlewareRecordsRoutesAndStatusClasses(t *testing.T) {
	h := newHarness(t)

	if code := h.doRaw(t, "GET", "/v1/stats", ""); code != http.StatusOK {
		t.Fatalf("GET /v1/stats = %d", code)
	}
	if code := h.doRaw(t, "GET", "/v1/models/not-a-uuid", ""); code != http.StatusBadRequest {
		t.Fatalf("GET /v1/models/not-a-uuid = %d, want 400", code)
	}
	// Selecting through an unknown rule surfaces an unmapped engine error,
	// the canonical 500 path.
	if code := h.doRaw(t, "POST", "/v1/rules/nope/select", `{"filter":{}}`); code != http.StatusInternalServerError {
		t.Fatalf("POST /v1/rules/nope/select = %d, want 500", code)
	}
	if code := h.doRaw(t, "GET", "/v1/nosuch", ""); code != http.StatusNotFound {
		t.Fatalf("GET /v1/nosuch = %d, want 404", code)
	}

	snap := h.srv.obs.Snapshot()
	wantCounters := []string{
		`http_requests_total{route="GET /v1/stats",status="2xx"}`,
		`http_requests_total{route="GET /v1/models/{id}",status="4xx"}`,
		`http_requests_total{route="POST /v1/rules/{id}/select",status="5xx"}`,
		`http_requests_total{route="unmatched",status="4xx"}`,
	}
	for _, name := range wantCounters {
		if snap.Counters[name] != 1 {
			t.Errorf("counter %s = %d, want 1 (have: %v)", name, snap.Counters[name], snap.Counters)
		}
	}
	for _, name := range []string{
		`http_request_seconds{route="GET /v1/stats"}`,
		`http_request_seconds{route="GET /v1/models/{id}"}`,
	} {
		hs, ok := snap.Histograms[name]
		if !ok || hs.Count != 1 {
			t.Errorf("histogram %s = %+v, want count 1", name, hs)
		}
	}
	// The request carried a body, so its size must be recorded.
	if hs := snap.Histograms[`http_request_bytes{route="POST /v1/rules/{id}/select"}`]; hs.Count != 1 {
		t.Errorf("request-size histogram = %+v, want count 1", hs)
	}
	// Aggregate latency covers all four requests.
	if hs := snap.Histograms["http_request_seconds_all"]; hs.Count != 4 {
		t.Errorf("http_request_seconds_all count = %d, want 4", hs.Count)
	}
}

func TestAccessLogLines(t *testing.T) {
	clk := clock.NewMock(t0)
	reg, err := core.New(relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), core.Options{
		Clock: clk, UUIDs: uuid.NewSeeded(21), Obs: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	srv := NewWith(reg, nil, nil, Options{Obs: obs.NewRegistry(), AccessLog: obslog.NewLogger(nil, slog.LevelInfo, &buf)})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	line := strings.TrimSpace(buf.String())
	var entry map[string]any
	if err := json.Unmarshal([]byte(line), &entry); err != nil {
		t.Fatalf("access log is not one JSON object per line: %v\n%s", err, line)
	}
	if entry["method"] != "GET" || entry["route"] != "GET /v1/stats" {
		t.Fatalf("access log entry = %v", entry)
	}
	if entry["status"] != float64(http.StatusOK) {
		t.Fatalf("access log status = %v, want 200", entry["status"])
	}
	if _, ok := entry["dur_ms"]; !ok {
		t.Fatal("access log entry missing dur_ms")
	}
}

// TestBodyLimitReturns413 covers the error-mapping fix: an over-limit
// body must map http.MaxBytesError to 413, not 400.
func TestBodyLimitReturns413(t *testing.T) {
	clk := clock.NewMock(t0)
	reg, err := core.New(relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), core.Options{
		Clock: clk, UUIDs: uuid.NewSeeded(22), Obs: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWith(reg, nil, nil, Options{Obs: obs.NewRegistry(), MaxBodyBytes: 64})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	big := `{"base_version_id":"` + strings.Repeat("x", 128) + `"}`
	resp, err := ts.Client().Post(ts.URL+"/v1/models", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", resp.StatusCode)
	}

	// The same limit guards the metrics-blob raw reader.
	resp, err = ts.Client().Post(ts.URL+"/v1/instances/4365754a-92bb-4421-a1be-00d7d87f77a0/metricsblob?scope=validation",
		"text/plain", strings.NewReader(strings.Repeat("m:1\n", 64)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized metrics blob = %d, want 413", resp.StatusCode)
	}

	// Small bodies still work.
	resp, err = ts.Client().Post(ts.URL+"/v1/models", "application/json", strings.NewReader(`{"base_version_id":"b"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("small body = %d, want 201", resp.StatusCode)
	}
}

// TestEngineDispatchCounted verifies metric writes are dispatched through
// the bounded queue and counted, and that events arriving after Close are
// dropped (and counted) rather than wedging the request path.
func TestEngineDispatchCounted(t *testing.T) {
	h := newHarness(t)
	m := h.registerModel(t, "Random Forest", "UberX")
	in := h.upload(t, m.ID, "sf", []byte("x"))

	if _, err := h.c.InsertMetric(in.ID, "bias", "validation", 0.02); err != nil {
		t.Fatal(err)
	}
	h.flush()
	if got := h.srv.cDispatched.Value(); got != 1 {
		t.Fatalf("dispatched = %d, want 1", got)
	}
	if got := h.srv.cDropped.Value(); got != 0 {
		t.Fatalf("dropped = %d, want 0", got)
	}

	h.srv.Close()
	id, _ := uuid.Parse(in.ID)
	h.srv.notifyMetricUpdated(id)
	if got := h.srv.cDropped.Value(); got != 1 {
		t.Fatalf("post-Close dropped = %d, want 1", got)
	}
}

// TestDebugMetricsEndpoint exercises the acceptance path: after traffic,
// /v1/debug/metrics returns per-route histograms and storage counters.
func TestDebugMetricsEndpoint(t *testing.T) {
	clk := clock.NewMock(t0)
	metrics := obs.NewRegistry()
	reg, err := core.New(relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), core.Options{
		Clock: clk, UUIDs: uuid.NewSeeded(23), Obs: metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg.DAL().Blobs().Instrument(metrics)
	reg.DAL().Meta().Instrument(metrics)
	repo := rules.NewRepo(clk)
	eng := rules.NewEngine(reg, repo, clk)
	eng.Instrument(metrics)
	srv := NewWith(reg, repo, eng, Options{Obs: metrics})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c := client.New(ts.URL, ts.Client())

	m, err := c.RegisterModel(api.RegisterModelRequest{
		BaseVersionID: "bv-rf", Project: "example-project", Name: "Random Forest", Domain: "UberX",
	})
	if err != nil {
		t.Fatal(err)
	}
	in, err := c.UploadInstance(api.UploadInstanceRequest{
		ModelID: m.ID, Name: "Random Forest", City: "sf", Blob: []byte("weights"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchBlob(in.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.InsertMetric(in.ID, "mape", "validation", 7.5); err != nil {
		t.Fatal(err)
	}
	srv.Flush()

	resp, err := ts.Client().Get(ts.URL + "/v1/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}

	if _, ok := snap.Histograms[`http_request_seconds{route="POST /v1/instances"}`]; !ok {
		t.Errorf("missing per-route histogram; have %d histograms", len(snap.Histograms))
	}
	if snap.Counters["dal_blob_puts_total"] != 1 {
		t.Errorf("dal_blob_puts_total = %d, want 1", snap.Counters["dal_blob_puts_total"])
	}
	if snap.Counters["dal_blob_gets_total"] != 1 {
		t.Errorf("dal_blob_gets_total = %d, want 1", snap.Counters["dal_blob_gets_total"])
	}
	if got := snap.Counters[`relstore_ops_total{op="insert",table="instances"}`]; got != 1 {
		t.Errorf("relstore instance inserts = %d, want 1", got)
	}
	if _, ok := snap.Histograms[`blobstore_op_seconds{op="put"}`]; !ok {
		t.Error("missing blobstore put latency histogram")
	}
	if snap.Counters["server_engine_dispatch_total"] != 1 {
		t.Errorf("dispatch counter = %d", snap.Counters["server_engine_dispatch_total"])
	}
	if _, ok := snap.Gauges["dal_cache_hit_ratio"]; !ok {
		t.Error("missing dal_cache_hit_ratio gauge")
	}
}

package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gallery/internal/forecast"
	"gallery/internal/obs"
	"gallery/internal/obs/httpmw"
	"gallery/internal/obs/profile"
	"gallery/internal/obs/trace"
)

// TestGatewayPromExposition drives real predictions through the serving
// daemon's HTTP front and validates the Prometheus scrape: correct
// content type, byte-valid 0.0.4 text format, the per-tenant/per-model
// RED series, and the telemetry shippers' route-labelled self-metrics.
func TestGatewayPromExposition(t *testing.T) {
	src := newFakeSource()
	src.promote(t, "demand", 0, &forecast.Heuristic{K: 2})
	gw := newTestGateway(t, src, Options{})
	ts := httptest.NewServer(NewHandler(gw))
	t.Cleanup(ts.Close)

	// Both shippers wired as cmd/galleryserve does, against a registry
	// that refuses everything; one trace export fails.
	refuse := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no token", http.StatusUnauthorized)
	}))
	t.Cleanup(refuse.Close)
	traceExp := trace.NewHTTPExporter(refuse.URL+"/v1/debug/traces", "", refuse.Client())
	t.Cleanup(traceExp.Close)
	traceExp.Expose(gw.obs)
	profExp := profile.NewHTTPExporter(refuse.URL+"/v1/debug/profile", "", refuse.Client())
	t.Cleanup(profExp.Close)
	profExp.Expose(gw.obs)
	traceExp.Export([]trace.SpanData{{Name: "x"}})
	traceExp.Flush()

	// One success and one failure (unknown model → upstream lookup
	// error) so both the request and error counters have series.
	for _, model := range []string{"demand", "ghost"} {
		resp, err := ts.Client().Post(
			ts.URL+"/v1/predict/"+model, "application/json",
			strings.NewReader(`{"history":[1,3]}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/debug/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prom scrape = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != httpmw.PromContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, httpmw.PromContentType)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("Cache-Control = %q, want no-store", cc)
	}
	if err := obs.ValidateExposition(payload); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, payload)
	}
	body := string(payload)
	for _, want := range []string{
		`serve_predict_requests_total{namespace="default",model="demand"} 1`,
		`serve_predict_requests_total{namespace="default",model="ghost"} 1`,
		`serve_predict_errors_total{namespace="default",model="ghost"} 1`,
		"# TYPE serve_predict_seconds histogram",
		`tenant_http_requests_total{namespace="default"} 2`,
		`telemetry_ship_failed_total{route="/v1/debug/traces"} 1`,
		`telemetry_ship_dropped_total{route="/v1/debug/traces"} 0`,
		`telemetry_ship_failed_total{route="/v1/debug/profile"} 0`,
		`telemetry_ship_dropped_total{route="/v1/debug/profile"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}

	// The JSON snapshot keeps its own explicit negotiation headers.
	resp, err = ts.Client().Get(ts.URL + "/v1/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("JSON metrics Content-Type = %q", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("JSON metrics Cache-Control = %q, want no-store", cc)
	}
}

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
)

// TestGatewayPromExposition drives real predictions through the serving
// daemon's HTTP front and validates the Prometheus scrape: correct
// content type, byte-valid 0.0.4 text format, and the per-tenant/per-model
// RED series. The shippers' self-metrics are pinned on the production
// wiring by TestGatewayShipperExposition.
func TestGatewayPromExposition(t *testing.T) {
	src := newFakeSource()
	src.promote(t, "demand", 0, &forecast.Heuristic{K: 2})
	gw := newTestGateway(t, src, Options{})
	ts := httptest.NewServer(NewHandler(gw))
	t.Cleanup(ts.Close)

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

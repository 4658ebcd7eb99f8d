package server_test

import (
	"net/http"
	"strings"
	"testing"

	"gallery/internal/daemon"
)

// startBoth builds both daemons through the composition root, always
// sampling so both trace rings hold something.
func startBoth(t *testing.T) (gdURL, gsURL string) {
	t.Helper()
	_, gdURL = startRegistry(t, func(c *daemon.RegistryConfig) { c.TraceSample = "always" })
	_, gsURL = startGateway(t, gdURL, func(c *daemon.GatewayConfig) { c.TraceSample = "always" })
	return gdURL, gsURL
}

// TestDebugEndpointHeaders pins the header contract shared by every
// debug endpoint on BOTH daemons: an explicit application/json
// Content-Type and Cache-Control: no-store. Debug state is live state —
// a proxy that caches a trace tail or a log tail hands the operator a
// stale picture of an incident.
func TestDebugEndpointHeaders(t *testing.T) {
	gdURL, gsURL := startBoth(t)
	cases := []struct {
		daemon string
		base   string
		path   string
	}{
		{"galleryd", gdURL, "/v1/debug/logs"},
		{"galleryd", gdURL, "/v1/debug/traces"},
		{"galleryd", gdURL, "/v1/debug/metrics"},
		{"galleryd", gdURL, "/v1/debug/profile"},
		{"galleryserve", gsURL, "/v1/debug/logs"},
		{"galleryserve", gsURL, "/v1/debug/traces"},
		{"galleryserve", gsURL, "/v1/debug/metrics"},
		{"galleryserve", gsURL, "/v1/debug/bundle"},
		{"galleryserve", gsURL, "/v1/debug/profile"},
	}
	for _, tc := range cases {
		resp, err := http.Get(tc.base + tc.path)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.daemon, tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s %s: status = %d, want 200", tc.daemon, tc.path, resp.StatusCode)
			continue
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("%s %s: Content-Type = %q, want application/json", tc.daemon, tc.path, ct)
		}
		if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
			t.Errorf("%s %s: Cache-Control = %q, want no-store", tc.daemon, tc.path, cc)
		}
	}
}

// TestDebugRoutesOneContract sends the same debug queries to both daemons
// and requires the same status from each: the routes are one
// implementation, so a query one daemon accepts the other cannot reject.
func TestDebugRoutesOneContract(t *testing.T) {
	gdURL, gsURL := startBoth(t)
	for _, tc := range []struct {
		query string
		want  int
	}{
		{"/v1/debug/metrics", http.StatusOK},
		{"/v1/debug/metrics/prom", http.StatusOK},
		{"/v1/debug/traces", http.StatusOK},
		{"/v1/debug/traces?limit=0", http.StatusOK},
		{"/v1/debug/traces?limit=5", http.StatusOK},
		{"/v1/debug/traces?limit=5x", http.StatusBadRequest},
		{"/v1/debug/traces?limit=-1", http.StatusBadRequest},
		{"/v1/debug/traces/0123456789abcdef0123456789abcdef", http.StatusNotFound},
		{"/v1/debug/logs", http.StatusOK},
		{"/v1/debug/logs?level=warn&limit=0", http.StatusOK},
		{"/v1/debug/logs?since=5m&after=0", http.StatusOK},
		{"/v1/debug/logs?since=2019-06-01T00:00:00Z", http.StatusOK},
		{"/v1/debug/logs?since=yesterday", http.StatusBadRequest},
		{"/v1/debug/logs?after=x", http.StatusBadRequest},
		{"/v1/debug/logs?limit=-1", http.StatusBadRequest},
		{"/v1/debug/logs?limit=5x", http.StatusBadRequest},
		{"/v1/debug/profile?merge=1h&n=5", http.StatusOK},
		{"/v1/debug/profile?merge=soon", http.StatusBadRequest},
		{"/v1/debug/profile?n=x", http.StatusBadRequest},
	} {
		for _, base := range []string{gdURL, gsURL} {
			resp, err := http.Get(base + tc.query)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("GET %s on %s = %d, want %d", tc.query, base, resp.StatusCode, tc.want)
			}
		}
	}
}

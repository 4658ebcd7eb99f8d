package serve_test

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gallery/internal/api"
	"gallery/internal/client"
	"gallery/internal/daemon"
	"gallery/internal/forecast"
	"gallery/internal/obs"
	"gallery/internal/obs/trace"
	"gallery/internal/tenant"
)

// flattenSpans walks a trace's span tree into a name-indexed map.
func flattenSpans(roots []*trace.Node) map[string]trace.SpanData {
	out := map[string]trace.SpanData{}
	var walk func(ns []*trace.Node)
	walk = func(ns []*trace.Node) {
		for _, n := range ns {
			out[n.Span.Name] = n.Span
			walk(n.Children)
		}
	}
	walk(roots)
	return out
}

// startRegistry builds galleryd through the composition root from its
// flag defaults (in memory, on a private metric registry, as adjusted by
// set) and serves it on a loopback listener.
func startRegistry(t *testing.T, set func(*daemon.RegistryConfig)) (*daemon.RegistryStack, string) {
	t.Helper()
	cfg := daemon.RegistryFlags(flag.NewFlagSet("galleryd", flag.PanicOnError))
	cfg.Mem, cfg.DumpMetrics, cfg.Obs = true, false, obs.NewRegistry()
	if set != nil {
		set(cfg)
	}
	st, err := daemon.Registry(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	ts := httptest.NewServer(st.Handler)
	t.Cleanup(ts.Close)
	return st, ts.URL
}

// startGateway builds galleryserve in front of the galleryd at gallery
// through the composition root, the same way.
func startGateway(t *testing.T, gallery string, set func(*daemon.GatewayConfig)) (*daemon.GatewayStack, string) {
	t.Helper()
	cfg := daemon.GatewayFlags(flag.NewFlagSet("galleryserve", flag.PanicOnError))
	cfg.Gallery, cfg.Obs = gallery, obs.NewRegistry()
	if set != nil {
		set(cfg)
	}
	st, err := daemon.Gateway(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	ts := httptest.NewServer(st.Handler)
	t.Cleanup(ts.Close)
	return st, ts.URL
}

// TestCrossProcessTrace drives one cache-miss prediction through the
// serving gateway over real HTTP and checks that it produces ONE trace,
// retrievable from the registry's /v1/debug/traces, whose spans come from
// both processes with correct parent links:
//
//	galleryserve: POST /v1/predict/{model} → serve.predict → serve.load
//	              → client.request (×2: production lookup + blob fetch)
//	galleryd:     GET routes (remote-forced by the propagated traceparent,
//	              despite its own never sampler) → core/dal/blobstore spans
//
// Both daemons come out of the composition root, so the gateway's spans
// reach the registry through the trace shipper production runs.
func TestCrossProcessTrace(t *testing.T) { crossProcessTrace(t, false) }

// TestCrossProcessTraceUnderAuth runs the same flow with galleryd -auth.
// POST /v1/debug/traces is publisher-class, so the gateway's shipper must
// present its publisher -token like every other call it makes to
// galleryd: the merged trace lands and no export fails.
func TestCrossProcessTraceUnderAuth(t *testing.T) { crossProcessTrace(t, true) }

func crossProcessTrace(t *testing.T, auth bool) {
	// Registry tier: sampler never, so every galleryd span in the final
	// trace exists only because the gateway's traceparent forced it.
	gd, gdURL := startRegistry(t, func(c *daemon.RegistryConfig) {
		c.TraceSample, c.Auth = "never", auth
	})
	var token string
	if auth {
		var err error
		if token, _, err = gd.Tenants.MintToken(t.Context(), tenant.DefaultNamespace, "gateway", tenant.RolePublisher); err != nil {
			t.Fatal(err)
		}
	}
	c := client.NewWith(gdURL, client.Options{Token: token})

	m, err := c.RegisterModel(api.RegisterModelRequest{
		BaseVersionID: "bv-demand",
		Project:       "marketplace",
		Name:          "demand",
		Domain:        "UberX",
	})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := forecast.Encode(&forecast.Heuristic{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := c.UploadInstance(api.UploadInstanceRequest{ModelID: m.ID, Name: "baseline", City: "sf", Blob: blob})
	if err != nil {
		t.Fatal(err)
	}

	// Serving tier: always-sample, shipping kept traces to the registry.
	gs, gsURL := startGateway(t, gdURL, func(c *daemon.GatewayConfig) {
		c.TraceSample, c.Token = "always", token
	})
	gwTracer, exporter := gs.Tracer, gs.TraceShipper
	gc := client.New(gsURL, nil)

	resp, err := gc.Predict(m.ID, api.PredictRequest{History: []float64{10, 20}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.InstanceID != inst.ID {
		t.Fatalf("prediction served by %s, want %s", resp.InstanceID, inst.ID)
	}

	// The gateway's root span ends (and exports) after the response is
	// written, so poll until its trace appears locally, then flush the
	// exporter and poll the registry's buffer for the merged view.
	var tid string
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && tid == "" {
		if sums := gwTracer.Store().Summaries(0); len(sums) > 0 {
			tid = sums[len(sums)-1].TraceID
		} else {
			time.Sleep(time.Millisecond)
		}
	}
	if tid == "" {
		t.Fatal("gateway recorded no trace for the predict request")
	}
	exporter.Flush()

	wantSpans := []string{
		// galleryserve half.
		"POST /v1/predict/{model}",
		"serve.predict",
		"serve.load",
		"client.request",
		// galleryd half.
		"GET /v1/models/{id}/production",
		"GET /v1/instances/{id}/blob",
		"core.production_version",
		"core.fetch_blob",
		"dal.get_blob",
		"blobstore.get",
	}
	var (
		d  trace.Detail
		ok bool
	)
	for time.Now().Before(deadline) {
		d, ok = gd.Tracer.Store().Get(tid)
		if ok && len(d.Summary.Services) == 2 && hasAll(flattenSpans(d.Roots), wantSpans) {
			break
		}
		ok = false
		time.Sleep(time.Millisecond)
	}
	if !ok {
		t.Fatalf("registry never assembled the merged trace %s: %+v", tid, d.Summary)
	}

	spans := flattenSpans(d.Roots)
	if got := d.Summary.Services; len(got) != 2 {
		t.Fatalf("services = %v, want galleryd and galleryserve", got)
	}
	if d.Summary.Errors != 0 {
		t.Fatalf("trace has %d errored spans", d.Summary.Errors)
	}

	// Parent links inside the gateway process.
	gwRoot := spans["POST /v1/predict/{model}"]
	if gwRoot.Service != "galleryserve" || gwRoot.ParentID != "" {
		t.Fatalf("gateway root = %+v, want parentless galleryserve span", gwRoot)
	}
	if spans["serve.predict"].ParentID != gwRoot.SpanID {
		t.Fatal("serve.predict must parent on the gateway's HTTP root")
	}
	if spans["serve.load"].ParentID != spans["serve.predict"].SpanID {
		t.Fatal("serve.load must parent on serve.predict")
	}
	if spans["client.request"].ParentID != spans["serve.load"].SpanID {
		t.Fatal("client.request must parent on serve.load")
	}

	// Across the process boundary: each registry HTTP root's parent must
	// be one of the gateway's client.request spans (there are two — the
	// map keeps one per name, so collect parents from the tree directly).
	clientSpanIDs := map[string]bool{}
	var collect func(ns []*trace.Node)
	collect = func(ns []*trace.Node) {
		for _, n := range ns {
			if n.Span.Name == "client.request" {
				clientSpanIDs[n.Span.SpanID] = true
			}
			collect(n.Children)
		}
	}
	collect(d.Roots)
	for _, route := range []string{"GET /v1/models/{id}/production", "GET /v1/instances/{id}/blob"} {
		s := spans[route]
		if s.Service != "galleryd" {
			t.Fatalf("%s served by %q, want galleryd", route, s.Service)
		}
		if !clientSpanIDs[s.ParentID] {
			t.Fatalf("%s parent %s is not one of the gateway's client.request spans", route, s.ParentID)
		}
	}

	// And inside the registry process.
	if spans["core.fetch_blob"].ParentID != spans["GET /v1/instances/{id}/blob"].SpanID {
		t.Fatal("core.fetch_blob must parent on the registry's blob route span")
	}
	if spans["dal.get_blob"].ParentID != spans["core.fetch_blob"].SpanID {
		t.Fatal("dal.get_blob must parent on core.fetch_blob")
	}
	if spans["blobstore.get"].ParentID != spans["dal.get_blob"].SpanID {
		t.Fatal("blobstore.get must parent on dal.get_blob")
	}

	// The merged trace is what the debug endpoint serves to galleryctl.
	raw, err := c.DebugTrace(tid)
	if err != nil || len(raw) == 0 {
		t.Fatalf("DebugTrace(%s): err=%v len=%d", tid, err, len(raw))
	}
	if exporter.Failed() != 0 || exporter.Dropped() != 0 {
		t.Fatalf("trace export failed=%d dropped=%d, want 0", exporter.Failed(), exporter.Dropped())
	}
}

func hasAll(spans map[string]trace.SpanData, names []string) bool {
	for _, n := range names {
		if _, ok := spans[n]; !ok {
			return false
		}
	}
	return true
}

// TestGatewayShipperExposition pins the telemetry shippers' self-metrics
// on galleryserve's Prometheus scrape: both shippers, as the composition
// root wires them, against a registry that refuses everything. One trace
// shipment fails and is counted under its ingest route; the profiler loop
// is off, so no profile shipment is attempted.
func TestGatewayShipperExposition(t *testing.T) {
	refuse := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no token", http.StatusUnauthorized)
	}))
	t.Cleanup(refuse.Close)
	gs, gsURL := startGateway(t, refuse.URL, func(c *daemon.GatewayConfig) { c.ProfileInterval = -1 })
	gs.TraceShipper.Export([]trace.SpanData{{Name: "x"}})
	gs.TraceShipper.Flush()

	payload, err := client.New(gsURL, nil).DebugMetricsProm()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(payload); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, payload)
	}
	for _, want := range []string{
		`telemetry_ship_failed_total{route="/v1/debug/traces"} 1`,
		`telemetry_ship_dropped_total{route="/v1/debug/traces"} 0`,
		`telemetry_ship_failed_total{route="/v1/debug/profile"} 0`,
		`telemetry_ship_dropped_total{route="/v1/debug/profile"} 0`,
	} {
		if !strings.Contains(string(payload), want) {
			t.Fatalf("exposition missing %q:\n%s", want, payload)
		}
	}
}

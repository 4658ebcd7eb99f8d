package daemon

import (
	"context"
	"flag"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gallery/internal/api"
	"gallery/internal/client"
	"gallery/internal/forecast"
	"gallery/internal/obs"
)

// TestHTTPServerBounds pins the limits on the server Run listens with,
// and that it sets no whole-request deadline an upload could hit.
func TestHTTPServerBounds(t *testing.T) {
	hs := newHTTPServer(":0", http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 || hs.MaxHeaderBytes <= 0 {
		t.Fatalf("ReadHeaderTimeout=%v IdleTimeout=%v MaxHeaderBytes=%d, want all set",
			hs.ReadHeaderTimeout, hs.IdleTimeout, hs.MaxHeaderBytes)
	}
	if hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Fatalf("ReadTimeout=%v WriteTimeout=%v, want none (uploads may be 256 MiB)", hs.ReadTimeout, hs.WriteTimeout)
	}
}

// serveLoopback serves st on a loopback port with Run's server and
// returns its URL and a stop that closes the listener, then st.
func serveLoopback(t *testing.T, st *Stack) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer("", st.Handler)
	go hs.Serve(ln)
	stop := func() {
		hs.Close()
		st.Close()
	}
	t.Cleanup(stop) // both closes are idempotent
	return "http://" + ln.Addr().String(), stop
}

// parse builds a daemon's config the way its main does: flag defaults,
// then args.
func parse[C any](t *testing.T, declare func(*flag.FlagSet) *C, args ...string) *C {
	t.Helper()
	fs := flag.NewFlagSet("daemon", flag.ContinueOnError)
	cfg := declare(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestProductionWiring runs both daemons as their mains build them, from
// parsed flags (each on a private metric registry), on loopback listeners
// with Run's server: register and upload through
// galleryd, predict through galleryserve, then check that the gateway's
// trace, profiles and health windows all reached galleryd and that the
// registry survives a restart over its data dir.
func TestProductionWiring(t *testing.T) {
	t.Run("auth=off", func(t *testing.T) { productionWiring(t, false) })
	t.Run("auth=on", func(t *testing.T) { productionWiring(t, true) })
}

func productionWiring(t *testing.T, auth bool) {
	dir := t.TempDir()
	// Every request is traced and profiles cycle fast enough to ship
	// within the test; everything else is a flag default.
	fast := []string{"-trace-sample", "always", "-profile-interval", "200ms", "-profile-window", "20ms"}
	gdArgs := append([]string{"-data", filepath.Join(dir, "gd"), "-dump-metrics=false"}, fast...)
	if auth {
		gdArgs = append(gdArgs, "-auth")
	}
	startRegistry := func() (*RegistryStack, string, func()) {
		cfg := parse(t, RegistryFlags, gdArgs...)
		cfg.Obs = obs.NewRegistry()
		gd, err := Registry(*cfg)
		if err != nil {
			t.Fatal(err)
		}
		url, stop := serveLoopback(t, &gd.Stack)
		return gd, url, stop
	}
	gd, gdURL, stopGD := startRegistry()

	// Under auth the first boot mints the bootstrap operator, which mints
	// the gateway's publisher token; predict callers hold a reader token
	// from the gateway's own token file.
	var pubToken, readToken string
	gsArgs := append([]string{"-gallery", gdURL}, fast...)
	if auth {
		if gd.Bootstrap == "" {
			t.Fatal("first authed boot minted no bootstrap token")
		}
		minted, err := client.NewWith(gdURL, client.Options{Token: gd.Bootstrap}).
			MintToken("default", api.MintTokenRequest{Name: "gateway", Role: "publisher"})
		if err != nil {
			t.Fatal(err)
		}
		pubToken, readToken = minted.Secret, "gal_wiring_test_reader"
		seed := filepath.Join(dir, "gateway-tokens.json")
		raw := `{"tokens":[{"secret":"` + readToken + `","name":"predictor","namespace":"default","role":"reader"}]}`
		if err := os.WriteFile(seed, []byte(raw), 0o600); err != nil {
			t.Fatal(err)
		}
		gsArgs = append(gsArgs, "-auth", "-token-file", seed, "-token", pubToken)
	} else if gd.Bootstrap != "" {
		t.Fatal("bootstrap token minted with auth off")
	}

	c := client.NewWith(gdURL, client.Options{Token: pubToken})
	m, err := c.RegisterModel(api.RegisterModelRequest{BaseVersionID: "bv-demand", Project: "marketplace", Name: "demand", Domain: "UberX"})
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

	gsCfg := parse(t, GatewayFlags, gsArgs...)
	gsCfg.Obs = obs.NewRegistry()
	gs, err := Gateway(*gsCfg)
	if err != nil {
		t.Fatal(err)
	}
	gsURL, stopGS := serveLoopback(t, &gs.Stack)
	gc := client.NewWith(gsURL, client.Options{Token: readToken})
	resp, err := gc.Predict(m.ID, api.PredictRequest{History: []float64{10, 20}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Value != 20 || resp.InstanceID != inst.ID {
		t.Fatalf("prediction = %+v, want 20 from %s", resp, inst.ID)
	}

	// The predict's trace merges on galleryd: the gateway's half arrives
	// through the trace shipper.
	deadline := time.Now().Add(10 * time.Second)
	var tid string
	for tid == "" && time.Now().Before(deadline) {
		for _, s := range gs.Tracer.Store().Summaries(0) {
			if s.Root == "POST /v1/predict/{model}" {
				tid = s.TraceID
			}
		}
		time.Sleep(time.Millisecond)
	}
	if tid == "" {
		t.Fatal("gateway recorded no predict trace")
	}
	gs.TraceShipper.Flush()
	for {
		if d, ok := gd.Tracer.Store().Get(tid); ok && len(d.Summary.Services) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("galleryd never held the merged trace %s", tid)
		}
		time.Sleep(time.Millisecond)
	}

	// The gateway's profile summaries reach galleryd's fleet view.
	for !hasProcess(t, c, "galleryserve") {
		if time.Now().After(deadline) {
			t.Fatal("galleryd's fleet view never listed galleryserve")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A health flush reaches the monitor.
	if err := gs.Gateway.FlushHealth(context.Background()); err != nil {
		t.Fatal(err)
	}
	if mh, ok := gd.Monitor.ModelHealth(m.ID); !ok || mh.Windows == 0 || mh.InstanceID != inst.ID {
		t.Fatalf("monitor after flush: %+v (tracked %v)", mh, ok)
	}

	// Neither shipper failed a shipment.
	gs.ProfileShipper.Flush()
	prom, err := gc.DebugMetricsProm()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`telemetry_ship_failed_total{route="/v1/debug/traces"} 0`,
		`telemetry_ship_failed_total{route="/v1/debug/profile"} 0`,
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("gateway exposition lacks %q", want)
		}
	}

	// Restart galleryd over the same data dir: the instance survives, and
	// an authed store that already holds tokens mints no second bootstrap.
	stopGS()
	stopGD()
	gd, gdURL, _ = startRegistry()
	if auth && gd.Bootstrap != "" {
		t.Fatal("restart minted a second bootstrap token")
	}
	got, err := client.NewWith(gdURL, client.Options{Token: pubToken}).GetInstance(inst.ID)
	if err != nil {
		t.Fatalf("instance after restart: %v", err)
	}
	if got.ID != inst.ID {
		t.Fatalf("instance after restart = %+v", got)
	}
}

// hasProcess reports whether galleryd's fleet profile view lists process.
func hasProcess(t *testing.T, c *client.Client, process string) bool {
	t.Helper()
	v, err := c.DebugProfile(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range v.Processes {
		if p.Process == process {
			return true
		}
	}
	return false
}

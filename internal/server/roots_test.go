package server_test

import (
	"flag"
	"net/http/httptest"
	"testing"

	"gallery/internal/daemon"
	"gallery/internal/obs"
)

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

package daemon

import (
	"errors"
	"fmt"
	"log"
	"strings"

	"gallery/internal/client"
	"gallery/internal/forecast"
	"gallery/internal/obs/profile"
	"gallery/internal/obs/trace"
	"gallery/internal/relstore"
	"gallery/internal/serve"
	"gallery/internal/tenant"
)

// GatewayStack is a built galleryserve: the realtime serving tier that
// pulls promoted instances out of galleryd and ships its telemetry back.
type GatewayStack struct {
	Stack
	Gateway        *serve.Gateway
	TraceShipper   *trace.HTTPExporter
	ProfileShipper *profile.HTTPExporter
	Profiler       *profile.Profiler
}

// Gateway builds galleryserve from cfg. On error, whatever it had started
// is stopped again.
func Gateway(cfg GatewayConfig) (_ *GatewayStack, err error) {
	switch {
	case cfg.Auth && cfg.TokenFile == "":
		return nil, errors.New("-auth requires -token-file (a gateway has no durable store to mint from)")
	case cfg.TokenFile != "" && !cfg.Auth:
		return nil, errors.New("-token-file requires -auth")
	}
	st := &GatewayStack{Stack: Stack{Name: "galleryserve", Addr: cfg.Addr}}
	defer func() {
		if err != nil {
			st.Close()
		}
	}()

	// Kept traces and profile summaries ship to galleryd, so a predict
	// reads there as one trace across both processes and the fleet
	// profile view covers both tiers. Under -auth both ingest routes are
	// publisher-class, so the shippers present -token too.
	st.TraceShipper = trace.NewHTTPExporter(cfg.Gallery+"/v1/debug/traces", cfg.Token, nil)
	st.onClose(st.TraceShipper.Close)
	logs, logger, err := cfg.telemetry(&st.Stack, st.TraceShipper)
	if err != nil {
		return nil, err
	}
	st.TraceShipper.Expose(cfg.Obs)

	cl := client.NewWith(cfg.Gallery, client.Options{Retries: cfg.Retries, Actor: "gateway:" + cfg.Name, Token: cfg.Token})
	// Hot swaps land on galleryd's audit trail, and prediction sketches
	// on its health monitor, through the same client.
	gwOpts := serve.Options{Name: cfg.Name, MaxModels: cfg.MaxModels, RefreshInterval: cfg.Refresh,
		Obs: cfg.Obs, Tracer: st.Tracer, AuditSink: cl}
	if cfg.HealthFlush > 0 {
		gwOpts.HealthSink, gwOpts.HealthInterval = cl, cfg.HealthFlush
	}
	st.Gateway = serve.New(cl, gwOpts)
	st.onClose(st.Gateway.Close)
	for _, id := range strings.Split(cfg.Preload, ",") {
		if id = strings.TrimSpace(id); id == "" {
			continue
		}
		// A throwaway query only forces the load; the answer is discarded.
		if _, err := st.Gateway.Predict(id, forecast.Context{History: []float64{1, 1, 1, 1}}); err != nil {
			log.Printf("galleryserve: preload %s: %v", id, err)
		}
	}

	st.ProfileShipper = profile.NewHTTPExporter(cfg.Gallery+"/v1/debug/profile", cfg.Token, nil)
	st.onClose(st.ProfileShipper.Close)
	st.ProfileShipper.Expose(cfg.Obs)
	if st.Profiler, err = cfg.profiler(&st.Stack, nil, st.ProfileShipper); err != nil {
		return nil, err
	}

	opts := []serve.HandlerOption{serve.WithTracer(st.Tracer), serve.WithLogRing(logs),
		serve.WithAccessLog(logger), serve.WithProfiler(st.Profiler)}
	if cfg.Pprof {
		opts = append(opts, serve.WithPprof())
	}
	if cfg.Auth {
		// With no metadata store, the gateway's control plane lives in
		// memory, rebuilt from the token file on every boot.
		tm, err := tenant.Open(relstore.NewMemory(), tenant.Options{Obs: cfg.Obs})
		if err != nil {
			return nil, fmt.Errorf("open tenant control plane: %w", err)
		}
		if err := cfg.applySeed(tm); err != nil {
			return nil, err
		}
		opts = append(opts, serve.WithAuthorizer(tm))
	}
	st.Handler = serve.NewHandler(st.Gateway, opts...)
	st.banner = fmt.Sprintf("galleryserve: serving on %s (gallery=%s refresh=%v)", cfg.Addr, cfg.Gallery, cfg.Refresh)
	return st, nil
}

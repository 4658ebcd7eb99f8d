// Package daemon is Gallery's one composition root: it declares both
// daemons' flags, builds galleryd (Registry) and galleryserve (Gateway)
// from them, and serves either (Run). The mains, the cross-process tests
// and the experiments that restart a registry all wire Gallery here.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	"gallery/internal/obs"
	obslog "gallery/internal/obs/log"
	"gallery/internal/obs/profile"
	"gallery/internal/obs/trace"
	"gallery/internal/tenant"
)

// Bounds on the HTTP server Run builds. There is deliberately no
// ReadTimeout or WriteTimeout: an instance upload may carry a 256 MiB
// body (server.DefaultMaxBodyBytes), and a whole-request deadline short
// enough to matter would cut legitimate uploads off on a slow link.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
	shutdownGrace     = 10 * time.Second
)

// Stack is the part of a built daemon that Run serves.
type Stack struct {
	Name, Addr string
	Handler    http.Handler
	Tracer     *trace.Tracer

	banner    string   // printed once the listener is up
	stops     []func() // run newest first by Close
	closeOnce sync.Once
}

func (s *Stack) onClose(f func()) { s.stops = append(s.stops, f) }

// Close stops everything the daemon started, newest first. Safe to call
// twice.
func (s *Stack) Close() {
	s.closeOnce.Do(func() {
		for i := len(s.stops) - 1; i >= 0; i-- {
			s.stops[i]()
		}
	})
}

func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// Run serves s until SIGINT or SIGTERM, then drains in-flight requests
// (for at most shutdownGrace) and closes s. A listener failure is
// returned without closing s.
func Run(s *Stack) error {
	hs := newHTTPServer(s.Addr, s.Handler)
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Println(s.banner)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	case sig := <-sigCh:
		log.Printf("%s: %v, shutting down", s.Name, sig)
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("%s: shutdown: %v", s.Name, err)
		}
		cancel()
	}
	s.Close()
	return nil
}

// telemetry builds what both daemons build alike: st.Tracer, exporting
// kept traces to exp when non-nil, and the log pipeline, a ring served at
// /v1/debug/logs and teed to stderr under -access-log. It also defaults
// c.Obs to obs.Default.
func (c *Common) telemetry(st *Stack, exp trace.Exporter) (*obslog.Ring, *slog.Logger, error) {
	sampler, err := trace.ParseSampler(c.TraceSample)
	if err != nil {
		return nil, nil, err
	}
	if c.Obs == nil {
		c.Obs = obs.Default
	}
	st.Tracer = trace.New(trace.Options{Service: st.Name, Sampler: sampler, Capacity: c.TraceBuffer, Exporter: exp})
	var tee io.Writer
	if c.AccessLog {
		tee = os.Stderr
	}
	logs := obslog.NewRing(c.LogBuffer)
	return logs, obslog.NewLogger(logs, obslog.ParseLevel(c.LogLevel), tee), nil
}

// profiler builds the continuous profiler, arming the baseline detector
// under -profile-baseline (regression events go to sink, which may be
// nil), and starts its loop until Close. Lock-contention sampling is
// opt-in: it costs a little on every contended op.
func (c *Common) profiler(st *Stack, sink profile.EventSink, exp profile.Exporter) (*profile.Profiler, error) {
	if c.MutexProfileFraction > 0 {
		runtime.SetMutexProfileFraction(c.MutexProfileFraction)
	}
	if c.BlockProfileRate > 0 {
		runtime.SetBlockProfileRate(c.BlockProfileRate)
	}
	var detector *profile.Detector
	if c.ProfileBaseline != "" {
		base, err := profile.LoadBaseline(c.ProfileBaseline)
		if err != nil {
			return nil, fmt.Errorf("load profile baseline: %w", err)
		}
		detector = profile.NewDetector(profile.DetectorConfig{Baseline: base, Factor: c.ProfileFactor, Obs: c.Obs, Sink: sink})
	}
	p := profile.New(profile.Config{
		Process: st.Name, Window: c.ProfileWindow, Interval: c.ProfileInterval, Hz: c.ProfileHz,
		Obs: c.Obs, Detector: detector, Exporter: exp,
	})
	if c.ProfileInterval > 0 {
		p.Start()
		st.onClose(p.Stop)
	}
	return p, nil
}

// applySeed applies -token-file, if set, to a tenant control plane.
func (c *Common) applySeed(tm *tenant.Manager) error {
	if c.TokenFile == "" {
		return nil
	}
	seed, err := tenant.LoadSeed(c.TokenFile)
	if err != nil {
		return err
	}
	if err := tm.ApplySeed(context.Background(), seed); err != nil {
		return fmt.Errorf("apply token file: %w", err)
	}
	return nil
}

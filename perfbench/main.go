// Command perfbench measures Gallery end to end over real sockets: it
// launches the galleryd and galleryserve binaries built from the checkout,
// drives them from one generator process over loopback, checks every
// answer, and prints one JSON result as its last line. With -trace 1 it
// instead assembles the same stack in-process, records spans at each
// layer boundary and prints the per-layer table.
//
// Run it through run.sh from the repository root, which builds the
// binaries first:
//
//	bash perfbench/run.sh --workload predict_hot --seed 1 --seconds 15 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

type config struct {
	w       workload
	seed    uint64
	seconds int
	trace   bool
	binDir  string
	workDir string // daemon data dirs of this run, removed at its end
	spanDir string // span dumps of traced runs, kept
}

// metric is one reported figure. n is its sample count, and base, when
// set, names what a ratio or difference was computed from.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
	base  string
}

type report struct {
	lines     []string
	metrics   []metric
	attempted int
	failed    int
}

func (r *report) addf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) add(name, unit string, v float64, n int, base string) {
	r.metrics = append(r.metrics, metric{name, unit, v, n, base})
}

func main() {
	var (
		wname   = flag.String("workload", "", "workload: predict_hot, predict_churn or registry_mixed")
		seed    = flag.Uint64("seed", defaultSeed, "workload seed")
		seconds = flag.Int("seconds", 10, "length of the timed phase (registry_mixed: sizes its fixed op sequence)")
		traceOn = flag.Int("trace", 0, "1: traced run printing per-layer metrics")
		binDir  = flag.String("bin", "", "directory holding the galleryd and galleryserve binaries")
		workDir = flag.String("work", "", "directory for daemon data (removed after the run) and span dumps")
	)
	flag.Parse()
	cfg := &config{seed: *seed, seconds: *seconds, trace: *traceOn == 1, binDir: *binDir, workDir: *workDir}
	found := false
	for _, w := range workloads {
		if w.name == *wname {
			cfg.w, found = w, true
		}
	}
	switch {
	case !found:
		fail(fmt.Errorf("unknown workload %q", *wname))
	case *seconds < 1:
		fail(fmt.Errorf("--seconds must be at least 1"))
	case *traceOn != 0 && *traceOn != 1:
		fail(fmt.Errorf("--trace must be 0 or 1"))
	case cfg.binDir == "" || cfg.workDir == "":
		fail(fmt.Errorf("-bin and -work are required"))
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	go func() {
		<-ctx.Done()
		stopAll()
	}()
	rep, err := run(ctx, cfg)
	stopAll()
	if err != nil {
		fail(err)
	}
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	out := map[string]any{"correct": true, "attempted": rep.attempted, "failed": rep.failed}
	ms := map[string]any{}
	for _, m := range rep.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fail(fmt.Errorf("metric %s has no value (%v)", m.name, v))
		}
		ms[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	out["metrics"] = ms
	b, err := json.Marshal(out)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

func fail(err error) {
	stopAll()
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func run(ctx context.Context, cfg *config) (*report, error) {
	cfg.spanDir = filepath.Join(cfg.workDir, "spans")
	cfg.workDir = filepath.Join(cfg.workDir, "work", fmt.Sprintf("%s-%d-%d", cfg.w.name, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	// Write back what the build and earlier runs left dirty (and, on a
	// filesystem mounted with discard, trim what they deleted) before
	// anything is timed.
	syscall.Sync()
	in, err := generate(cfg.w, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	rep.addf("perfbench %s seed=%d seconds=%d trace=%v", cfg.w.name, cfg.seed, cfg.seconds, cfg.trace)
	rep.addf("why: %s", cfg.w.why)
	rep.addf("durability: WAL and blobs on disk, fsync off (galleryd default); the crash-restart check kills galleryd with the OS page cache intact, so it checks WAL replay, not device durability")
	real, err := runReal(ctx, cfg, in)
	if err != nil {
		return nil, err
	}
	rep.attempted, rep.failed = real.ops.attempted, real.ops.failed
	describePhase(rep, in, real)
	if !cfg.trace {
		endToEnd(rep, real)
	} else {
		tr, err := runTraced(ctx, cfg, in)
		if err != nil {
			return nil, err
		}
		perLayer(rep, in, real, tr)
	}
	rep.addf("checks passed: every answer matched the seeded expectation; store re-read after the timed phase and after %d SIGKILL restarts", len(real.restartS))
	for _, m := range rep.metrics {
		base := ""
		if m.base != "" {
			base = "  [" + m.base + "]"
		}
		rep.addf("%-40s %14.4f %-6s n=%d%s", m.name, m.value, m.unit, m.n, base)
	}
	// A failed run leaves its daemon logs behind for inspection.
	if err := os.RemoveAll(cfg.workDir); err != nil {
		return nil, err
	}
	syscall.Sync()
	return rep, nil
}

// describePhase prints the generator's account of the timed phase.
func describePhase(rep *report, in *inputs, r *realResult) {
	p := r.ops
	mode := fmt.Sprintf("open loop at %.0f req/s", in.w.rate)
	if in.w.rate == 0 {
		mode = fmt.Sprintf("closed loop, %d clients, fixed sequence of %d ops", maxConns, len(in.ops))
	}
	rep.addf("timed phase: %s over %d connections; attempted=%d succeeded=%d failed=%d wall=%.3fs",
		mode, maxConns, p.attempted, p.succeeded, p.failed, p.wall.Seconds())
	rep.addf("generator: cpu=%.3fs (%.1f%% of one core, pacing spin included)", p.genCPU.Seconds(), 100*p.genCPU.Seconds()/p.wall.Seconds())
	if in.w.rate > 0 {
		late := newDist(p.lateMS)
		rep.addf("generator: late p50=%.3fms p99=%.3fms (n=%d) max_queue=%d backlog=%v",
			late.at(500), late.at(990), len(late), p.maxQueue, p.backlog())
	}
	from := "the send"
	if in.w.rate > 0 {
		from = "the due time"
	}
	lat, svc := newDist(p.latMS), newDist(p.svcMS)
	rep.addf("latency from %s: p50=%.3fms p99=%.3fms (n=%d, %d beyond p99)", from, lat.at(500), lat.at(990), len(lat), beyond(len(lat), 990))
	if lvl := tailLevel(len(lat)); lvl > 0 {
		rep.addf("latency from %s: highest supported percentile p%s = %.3fms (%d beyond)", from, permilleName(lvl), lat.at(lvl), beyond(len(lat), lvl))
	}
	rep.addf("latency from the send: p25=%.3fms p50=%.3fms p99=%.3fms (n=%d)", svc.at(250), svc.at(500), svc.at(990), len(svc))
	rep.addf("throughput %.3f ops/s (%d ops / %.3fs)", float64(p.succeeded)/p.wall.Seconds(), p.succeeded, p.wall.Seconds())
	up, se, where := r.byKind[opUpload], r.byKind[opSearch], "timed phase"
	if in.w.rate > 0 {
		up, se, where = r.uploadMS, r.searchMS, "registry probe after the timed phase"
	}
	rep.addf("upload p50=%.3fms (n=%d), search p50=%.3fms (n=%d), %s", median(up), len(up), median(se), len(se), where)
	rep.addf("restart: median %.3fs SIGKILL to first answer (n=%d), WAL %d bytes", median(r.restartS), len(r.restartS), r.walBytes)
	rep.addf("failed_ratio %.6f (failed %d / attempted %d)", ratio(float64(p.failed), float64(p.attempted)), p.failed, p.attempted)
	if in.w.rate == 0 {
		names := make([]string, 0, nOpKinds)
		for k := opKind(0); k < nOpKinds; k++ {
			d := newDist(r.byKind[k])
			names = append(names, fmt.Sprintf("%s p50=%.3fms n=%d", opNames[k], d.median(), len(d)))
		}
		sort.Strings(names)
		rep.addf("per op: %s", strings.Join(names, "; "))
	}
}

func permilleName(p int) string {
	s := fmt.Sprintf("%.1f", float64(p)/10)
	return strings.TrimSuffix(s, ".0")
}

// endToEnd derives the metrics a user of the system sees that repeat
// from run to run on a shared 2-vCPU host. Latency from the due time (p50
// and p99), closed-loop throughput, upload, search and restart times move
// with the other tenants of the host by more than any bound a regression
// could be judged against; they are printed above, not gated. The lower
// quartile of the time from send to answer is set by the requests no
// other tenant disturbed, so a change in what a request costs moves it
// and the host's noise mostly does not.
func endToEnd(rep *report, r *realResult) {
	p := r.ops
	rep.add("setup_s", "s", median(r.setupS), len(r.setupS), "median of fresh launch+prefill+warm-up")
	rep.add("latency_p25_ms", "ms", newDist(p.svcMS).at(250), len(p.svcMS), "send to answer, every op of the timed phase")
	rep.add("cpu_us_per_op", "us", ratio(float64(r.cpu.total()), float64(p.succeeded)), p.succeeded,
		fmt.Sprintf("galleryd %dus + galleryserve %dus", r.cpu.gd, r.cpu.gs))
	rep.add("rss_mb", "MB", float64(r.rss)/(1<<20), 1, "VmRSS galleryd+galleryserve")
	rep.add("disk_mb", "MB", float64(r.disk)/(1<<20), 1, "galleryd data dir (WAL and blob replicas) after the timed phase")
}

package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gallery/internal/api"
	"gallery/internal/benchfmt"
	"gallery/internal/core"
	"gallery/internal/forecast"
	"gallery/internal/obs"
	"gallery/internal/serve"
	"gallery/internal/uuid"
)

// regSource adapts a core.Registry to serve.Source, bypassing HTTP so the
// serving ablation measures the gateway itself rather than the sockets.
type regSource struct{ reg *core.Registry }

func (s regSource) ProductionVersion(modelID string) (api.VersionRecord, error) {
	id, err := uuid.Parse(modelID)
	if err != nil {
		return api.VersionRecord{}, err
	}
	v, err := s.reg.ProductionVersion(id)
	if err != nil {
		return api.VersionRecord{}, err
	}
	return api.VersionRecord{
		ID:         v.ID.String(),
		ModelID:    v.ModelID.String(),
		Major:      v.Major,
		Minor:      v.Minor,
		Version:    v.String(),
		InstanceID: v.InstanceID.String(),
	}, nil
}

func (s regSource) FetchBlob(instanceID string) ([]byte, error) {
	id, err := uuid.Parse(instanceID)
	if err != nil {
		return nil, err
	}
	return s.reg.FetchBlob(id)
}

// ServingResult is the serving-gateway experiment outcome: a prediction
// storm answered by a promoted LinearAR instance, with a promotion
// landing mid-storm.
type ServingResult struct {
	Clients     int
	PerClient   int
	Predictions int
	Elapsed     time.Duration // fastest storm round
	QPS         float64
	// Single-client measurement round: request latency quantiles and the
	// exact allocation count per prediction.
	P50         time.Duration
	P99         time.Duration
	AllocsPerOp float64
	// SwapServed reports that after the mid-storm promotion, predictions
	// came from the new instance.
	SwapServed bool
}

// Format renders the experiment as paper-style rows.
func (r *ServingResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "prediction storm: %d clients x %d predictions, LinearAR production instance, hot swap mid-storm\n",
		r.Clients, r.PerClient)
	fmt.Fprintf(&b, "  %8d predictions in %8.1fms  %10.0f qps  p50=%v p99=%v allocs/op=%.1f\n",
		r.Predictions, float64(r.Elapsed.Microseconds())/1000, r.QPS,
		r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond), r.AllocsPerOp)
	fmt.Fprintf(&b, "  swap served new instance: %v\n", r.SwapServed)
	return b.String()
}

// ServingGateway runs the serving-tier experiment: concurrent prediction
// load with a promotion landing mid-storm. A run with failed predictions
// is an experiment failure; a swap that never reaches traffic reads as
// SwapServed=false.
func ServingGateway(clients, perClient int) (*ServingResult, error) {
	env, err := NewEnv(31)
	if err != nil {
		return nil, err
	}
	m, err := env.Reg.RegisterModel(core.ModelSpec{
		BaseVersionID: "serving_bench", Project: "bench", Name: "demand", Domain: "UberX",
	})
	if err != nil {
		return nil, err
	}

	// One trained LinearAR champion and one challenger for the mid-storm
	// swap, on two months of hourly data; predictions carry a month-long
	// history window so the per-prediction feature work is realistic.
	series := forecast.Generate(forecast.CityConfig{
		Name: "sf", Base: 100, GrowthPerWeek: 3, DailyAmp: 20, WeeklyAmp: 10, NoiseStd: 2, Seed: 31,
	}, epoch, time.Hour, 24*56)
	champion := &forecast.LinearAR{Lags: 48}
	if err := champion.Train(series); err != nil {
		return nil, err
	}
	challenger := &forecast.LinearAR{Lags: 24}
	if err := challenger.Train(series); err != nil {
		return nil, err
	}

	upload := func(mdl forecast.Model, name string) (*core.Instance, error) {
		blob, err := forecast.Encode(mdl)
		if err != nil {
			return nil, err
		}
		env.Clock.Advance(time.Minute)
		return env.Reg.UploadInstance(core.InstanceSpec{ModelID: m.ID, Name: name, City: "sf"}, blob)
	}

	hist := series.Values()[len(series)-24*28:]
	fctx := forecast.Context{History: hist, Time: series[len(series)-1].T.Add(time.Hour)}

	champ, err := upload(champion, "champion")
	if err != nil {
		return nil, err
	}
	chall, err := upload(challenger, "challenger")
	if err != nil {
		return nil, err
	}
	if err := env.Reg.PromoteInstance(champ.ID); err != nil {
		return nil, err
	}

	res := &ServingResult{Clients: clients, PerClient: perClient, Elapsed: time.Duration(1<<62 - 1)}
	gw := serve.New(regSource{env.Reg}, serve.Options{RefreshInterval: -1, Obs: obs.NewRegistry()})
	defer gw.Close()
	// Warm load outside the timed region: the gateway caches the champion
	// before the promotion lands.
	if _, err := gw.Predict(m.ID.String(), fctx); err != nil {
		return nil, err
	}

	// storm runs one timed round of the prediction load. When swap is
	// non-nil it is invoked from the sidelines once the storm is half
	// done, modeling a promotion landing under fire.
	storm := func(swap func() error) (time.Duration, error) {
		var (
			wg      sync.WaitGroup
			failed  atomic.Int64
			swapErr error
			halfAt  = int32(perClient / 2)
			swapCh  = make(chan struct{})
			once    sync.Once
		)
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < perClient; i++ {
					if c == 0 && int32(i) == halfAt {
						once.Do(func() { close(swapCh) })
					}
					if _, err := gw.Predict(m.ID.String(), fctx); err != nil {
						failed.Add(1)
					}
				}
			}(c)
		}
		if swap != nil {
			<-swapCh
			swapErr = swap()
		}
		wg.Wait()
		elapsed := time.Since(start)
		if swapErr != nil {
			return 0, swapErr
		}
		if n := failed.Load(); n != 0 {
			return 0, fmt.Errorf("experiments: serving storm dropped %d predictions", n)
		}
		return elapsed, nil
	}

	// Round 1 takes the promotion mid-storm; later rounds are clean, and
	// the fastest round is the throughput — single rounds are ~60ms, well
	// inside GC/scheduler noise.
	for round := 0; round < 3; round++ {
		var swap func() error
		if round == 0 {
			swap = func() error {
				if err := env.Reg.PromoteInstance(chall.ID); err != nil {
					return err
				}
				gw.RefreshAll()
				return nil
			}
		}
		runtime.GC()
		elapsed, err := storm(swap)
		if err != nil {
			return nil, err
		}
		res.Elapsed = min(res.Elapsed, elapsed)
	}
	res.Predictions = clients * perClient
	res.QPS = float64(res.Predictions) / res.Elapsed.Seconds()
	resp, err := gw.Predict(m.ID.String(), fctx)
	if err != nil {
		return nil, err
	}
	res.SwapServed = resp.InstanceID == chall.ID.String()
	// Single-client measurement round: per-request latency quantiles and
	// allocations per prediction (the machine-independent number the perf
	// baseline gates on).
	if res.P50, res.P99, res.AllocsPerOp, err = measurePredict(gw, m.ID.String(), fctx, 1000); err != nil {
		return nil, err
	}
	return res, nil
}

// measurePredict issues n sequential predictions against a warmed
// gateway, reporting latency quantiles and the heap allocation count per
// call (via runtime.MemStats.Mallocs, so it counts mallocs exactly
// rather than sampling).
func measurePredict(gw *serve.Gateway, modelID string, fctx forecast.Context, n int) (p50, p99 time.Duration, allocsPerOp float64, err error) {
	for i := 0; i < 50; i++ { // warm pools so steady-state is measured
		if _, err = gw.Predict(modelID, fctx); err != nil {
			return
		}
	}
	lats := make([]time.Duration, n)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range lats {
		t0 := time.Now()
		if _, err = gw.Predict(modelID, fctx); err != nil {
			return
		}
		lats[i] = time.Since(t0)
	}
	runtime.ReadMemStats(&after)
	allocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(n)
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats[n/2], lats[n*99/100], allocsPerOp, nil
}

// BenchMetrics emits the experiment's BENCH_serving.json metrics.
// Allocation counts per prediction are machine-independent and gate the
// baseline; throughput and latency are hardware-bound trajectory info.
// The batch_off_ prefix predates the removal of micro-batching and is
// kept so baselines keep comparing like with like.
func (r *ServingResult) BenchMetrics() []benchfmt.Metric {
	swap := 0.0
	if r.SwapServed {
		swap = 1
	}
	return []benchfmt.Metric{
		{Name: "batch_off_qps", Unit: "ops/s", Value: r.QPS, Better: benchfmt.Info},
		{Name: "batch_off_p50_seconds", Unit: "s", Value: r.P50.Seconds(), Better: benchfmt.Info},
		{Name: "batch_off_p99_seconds", Unit: "s", Value: r.P99.Seconds(), Better: benchfmt.Info},
		{Name: "batch_off_allocs_per_op", Unit: "allocs/op", Value: r.AllocsPerOp, Better: benchfmt.LowerIsBetter, Tol: 0.5},
		{Name: "swap_served", Value: swap, Better: benchfmt.HigherIsBetter, Tol: 0.01},
	}
}

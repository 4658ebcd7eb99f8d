package serve

import (
	"context"
	"testing"
	"time"

	"gallery/internal/api"
	"gallery/internal/forecast"
	"gallery/internal/obs"
)

// nopSink discards health observations; it exists to turn recording on
// without measuring a network.
type nopSink struct{}

func (nopSink) ReportHealthObservations(context.Context, api.HealthObservationsRequest) error {
	return nil
}

// benchGateway serves one trained LinearAR with a month-long history
// window, so the per-prediction feature work is realistic.
func benchGateway(b *testing.B, health bool) (*Gateway, string, forecast.Context) {
	b.Helper()
	series := forecast.Generate(forecast.CityConfig{
		Name: "sf", Base: 100, GrowthPerWeek: 3, DailyAmp: 20, WeeklyAmp: 10, NoiseStd: 2, Seed: 7,
	}, time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC), time.Hour, 24*56)
	m := &forecast.LinearAR{Lags: 48}
	if err := m.Train(series); err != nil {
		b.Fatal(err)
	}
	src := newFakeSource()
	src.promote(b, "m1", 0, m)
	opts := Options{RefreshInterval: -1, Obs: obs.NewRegistry()}
	if health {
		opts.HealthSink = nopSink{}
		opts.HealthInterval = -1 // record on the hot path, no flush loop
	}
	g := New(src, opts)
	b.Cleanup(g.Close)
	fctx := forecast.Context{
		History: series.Values()[len(series)-24*28:],
		Time:    series[len(series)-1].T.Add(time.Hour),
	}
	if _, err := g.Predict("m1", fctx); err != nil {
		b.Fatal(err)
	}
	return g, "m1", fctx
}

func benchPredict(b *testing.B, health bool) {
	g, id, fctx := benchGateway(b, health)
	b.ReportAllocs()
	// Several client goroutines per core: overlapping requests are the
	// serving regime being measured.
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := g.Predict(id, fctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServingGateway measures the predict path under concurrent
// load (run with -cpu to vary client parallelism), with health recording
// off and on: recording must cost a few atomics, not allocations.
func BenchmarkServingGateway(b *testing.B) {
	b.Run("unbatched", func(b *testing.B) { benchPredict(b, false) })
	b.Run("unbatched/health", func(b *testing.B) { benchPredict(b, true) })
}

// TestPredictAllocsWithHealthRecording pins the acceptance bound: health
// recording off adds zero allocations to the predict path, and recording
// on adds at most two per op.
func TestPredictAllocsWithHealthRecording(t *testing.T) {
	measure := func(health bool) float64 {
		src := newFakeSource()
		src.promote(t, "m1", 0, &forecast.Heuristic{K: 1})
		opts := Options{RefreshInterval: -1, Obs: obs.NewRegistry()}
		if health {
			opts.HealthSink = nopSink{}
			opts.HealthInterval = -1
		}
		g := New(src, opts)
		t.Cleanup(g.Close)
		fctx := forecast.Context{History: []float64{10, 20, 30}}
		if _, err := g.Predict("m1", fctx); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(200, func() {
			if _, err := g.Predict("m1", fctx); err != nil {
				t.Fatal(err)
			}
		})
	}
	off := measure(false)
	on := measure(true)
	if on-off > 2 {
		t.Fatalf("health recording adds %.1f allocs/op (off=%.1f on=%.1f), want ≤2", on-off, off, on)
	}
}

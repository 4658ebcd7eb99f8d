package forecast

import (
	"fmt"
	"testing"
	"time"
)

// paddedForecast is the reference LinearAR prediction: copy the history
// into a value array padded with Horizon zeros so the predicted element is
// its last index, then build a fresh feature row. Forecast must match it
// bit for bit without the copy.
func paddedForecast(m *LinearAR, ctx Context) float64 {
	if len(m.Theta) == 0 || len(ctx.History) < m.span() {
		if len(ctx.History) == 0 {
			return 0
		}
		return ctx.History[len(ctx.History)-1]
	}
	values := append([]float64(nil), ctx.History...)
	for k := 0; k < m.horizon(); k++ {
		values = append(values, 0)
	}
	refEvent := ctx.eventAt(len(ctx.History) - 1)
	row := m.features(nil, values, ctx.Time, ctx.Event, refEvent, len(values)-1)
	var v float64
	for j, x := range row {
		v += m.Theta[j] * x
	}
	if v < 0 {
		v = 0
	}
	return v
}

// eventfulSeries is a month and a half of hourly demand with a weekly
// one-day event, so event-aware models see every regime.
func eventfulSeries() Series {
	cfg := sampleCity(23)
	for w := 0; w < 6; w++ {
		ev := start.Add(time.Duration(w)*7*24*time.Hour + 3*24*time.Hour)
		cfg.Events = append(cfg.Events, Event{Start: ev, End: ev.Add(24 * time.Hour), Multiplier: 1.7})
	}
	return Generate(cfg, start, time.Hour, 24*42)
}

func TestLinearARForecastMatchesPaddedReference(t *testing.T) {
	data := eventfulSeries()
	values := data.Values()
	flags := make([]bool, len(data))
	for i, p := range data {
		flags[i] = p.Event
	}
	for _, lags := range []int{6, 24, 48} {
		for _, horizon := range []int{1, 2, 3} {
			for _, event := range []bool{false, true} {
				m := &LinearAR{Lags: lags, Horizon: horizon, UseEventFeature: event}
				t.Run(fmt.Sprintf("lags=%d/h=%d/event=%v", lags, horizon, event), func(t *testing.T) {
					if err := m.Train(data); err != nil {
						t.Fatal(err)
					}
					for n := m.span(); n <= 700; n++ {
						// Histories end at varying points of the series so
						// the event regimes rotate through the reference
						// observation.
						end := len(data) - (n % 97)
						ctx := Context{
							History:   values[end-n : end],
							Time:      data[end-1].T.Add(time.Duration(horizon) * time.Hour),
							Event:     n%5 == 0,
							PrevEvent: flags[end-1],
						}
						if n%3 != 0 {
							ctx.HistoryEvents = flags[end-n : end]
						}
						if got, want := m.Forecast(ctx), paddedForecast(m, ctx); got != want {
							t.Fatalf("history length %d: Forecast = %v, padded reference = %v", n, got, want)
						}
					}
				})
			}
		}
	}
}

// TestLinearARForecastZeroAlloc pins the serving hot path: a trained
// LinearAR answers from a four-week hourly history without allocating.
func TestLinearARForecastZeroAlloc(t *testing.T) {
	data := eventfulSeries()
	for _, event := range []bool{false, true} {
		m := &LinearAR{Lags: 48, UseEventFeature: event}
		if err := m.Train(data); err != nil {
			t.Fatal(err)
		}
		ctx := Context{
			History: data.Values()[len(data)-672:],
			Time:    data[len(data)-1].T.Add(time.Hour),
			Event:   true,
		}
		if allocs := testing.AllocsPerRun(200, func() { m.Forecast(ctx) }); allocs != 0 {
			t.Fatalf("event=%v: Forecast made %.1f allocs/op, want 0", event, allocs)
		}
	}
}

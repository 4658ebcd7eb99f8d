package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"gallery/internal/api"
	"gallery/internal/forecast"
)

// workload fixes the shape of one benchmark workload. Every input it
// generates is a function of the seed alone.
type workload struct {
	name string
	why  string
	// models registered and uploads per model in the prefill; a model's
	// last prefill upload is its promoted instance.
	models, versions int
	histLen          int
	// rate is the open-loop request rate; 0 runs the fixed registry op
	// sequence in a closed loop instead.
	rate float64
	// zipf skews the choice of model (0 picks uniformly).
	zipf float64
	// opsPerSecond sizes the fixed registry op sequence: --seconds times
	// this many ops, however fast the build under test runs them.
	opsPerSecond int
	// setups is how many times a run sets up fresh daemons; setup_s is
	// their median, and only the last set-up is measured further.
	setups int
}

var workloads = []workload{
	{
		name:   "predict_hot",
		why:    "open-loop predicts on 8 resident models with 672-point histories: transport, request decode and forecast dominate; the registry is idle",
		models: 8, versions: 16, histLen: 672, rate: 300, setups: 7,
	},
	{
		name:   "predict_churn",
		why:    "open-loop predicts, Zipf over 256 models against the gateway's 64-model LRU: the miss path (load, galleryd fetch, decode) dominates",
		models: 256, versions: 2, histLen: 96, rate: 250, zipf: 1.1, setups: 5,
	},
	{
		name:   "registry_mixed",
		why:    "fixed closed-loop sequence of uploads, metric inserts, Listing-5 searches and point reads on a few thousand instances, then a crash-restart",
		models: 256, versions: 6, histLen: 96, opsPerSecond: 500, setups: 3,
	},
}

const (
	// defaultSeed is the seed the benchmark was built with. A claim must
	// also hold on the held-out seed 20201, which BENCHMARK.json names.
	defaultSeed  = 1
	nProjects    = 8
	nCities      = 32
	seriesWindow = 2048 // history start offsets available per model
	probeOps     = 512  // uploads, and as many searches, in a predict workload's registry probe
	stepMinutes  = 15
)

var epoch = time.Date(2019, 6, 3, 0, 0, 0, 0, time.UTC) // a Monday

// uploadInput is one instance upload with the learner inside its blob and
// the validation metrics a training pipeline reports for it.
type uploadInput struct {
	req     api.UploadInstanceRequest // ModelID is filled in at run time
	learner forecast.Model            // decoded from req.Blob, as a gateway would
	metrics map[string]float64
}

// modelInput is one registered model with its prefill uploads and the
// demand series its predict requests are cut from.
type modelInput struct {
	reg     api.RegisterModelRequest
	project string
	city    string
	series  []float64
	uploads []uploadInput
}

// predictInput is one predict request and the forecast the promoted
// learner gives for it.
type predictInput struct {
	model int
	req   api.PredictRequest
	want  float64
}

// inputs is everything one run sends.
type inputs struct {
	w       workload
	models  []modelInput
	warmup  []predictInput
	predict []predictInput
	ops     []regOp
	// probe is the predict workloads' registry probe after the timed
	// phase: a new version of a model, then a search, probeOps times.
	probe []probeOp
	// searches verify the store after the timed phase.
	searches []api.SearchRequest
}

type probeOp struct {
	model  int
	upload uploadInput
	search api.SearchRequest
}

func generate(w workload, seed uint64, seconds int) (*inputs, error) {
	in := &inputs{w: w}
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	for m := 0; m < w.models; m++ {
		mi := modelInput{
			project: fmt.Sprintf("proj-%02d", m%nProjects),
			city:    fmt.Sprintf("city-%02d", rng.IntN(nCities)),
			series:  demandSeries(rng, w.histLen+seriesWindow),
		}
		mi.reg = api.RegisterModelRequest{
			BaseVersionID: fmt.Sprintf("pb-%d-%03d", seed, m),
			Project:       mi.project,
			Name:          fmt.Sprintf("demand-forecast-%03d", m),
			Owner:         "perfbench",
			Team:          "marketplace",
			Domain:        "UberX",
			Description:   "per-city demand forecaster",
		}
		for v := 0; v < w.versions; v++ {
			u, err := newUpload(rng, &mi, w.histLen, v)
			if err != nil {
				return nil, err
			}
			mi.uploads = append(mi.uploads, u)
		}
		in.models = append(in.models, mi)
	}
	pick := modelPicker(rng, w)
	if w.rate > 0 {
		// Enough steady work that a set-up is not mostly process start,
		// whose time swings most with the host's other tenants.
		in.warmup = in.predicts(rng, pick, 2*w.models+800)
		in.predict = in.predicts(rng, pick, int(w.rate*float64(seconds)))
		for i := 0; i < probeOps; i++ {
			m := i % w.models
			u, err := newUpload(rng, &in.models[m], w.histLen, w.versions+i/w.models)
			if err != nil {
				return nil, err
			}
			in.probe = append(in.probe, probeOp{model: m, upload: u, search: listing5(rng)})
		}
	} else {
		ops, err := in.opSequence(rng, seconds*w.opsPerSecond)
		if err != nil {
			return nil, err
		}
		in.ops = ops
	}
	for i := 0; i < 128; i++ {
		in.searches = append(in.searches, listing5(rng))
	}
	return in, nil
}

// modelPicker chooses the model of each request: uniform, or Zipf-skewed
// with the popular models scattered over the index range.
func modelPicker(rng *rand.Rand, w workload) func() int {
	if w.zipf == 0 {
		return func() int { return rng.IntN(w.models) }
	}
	z := rand.NewZipf(rng, w.zipf, 1, uint64(w.models-1))
	perm := rng.Perm(w.models)
	return func() int { return perm[z.Uint64()] }
}

func (in *inputs) predicts(rng *rand.Rand, pick func() int, n int) []predictInput {
	out := make([]predictInput, n)
	for i := range out {
		m := pick()
		out[i] = in.predictFor(m, rng.IntN(seriesWindow))
	}
	return out
}

// predictFor builds a request on model m's series at offset off, with the
// forecast its promoted learner gives.
func (in *inputs) predictFor(m, off int) predictInput {
	mi := &in.models[m]
	h := in.w.histLen
	req := api.PredictRequest{
		History: mi.series[off : off+h],
		Time:    epoch.Add(time.Duration(off+h) * stepMinutes * time.Minute),
	}
	promoted := mi.uploads[len(mi.uploads)-1].learner
	return predictInput{model: m, req: req, want: promoted.Forecast(toContext(req))}
}

func toContext(r api.PredictRequest) forecast.Context {
	return forecast.Context{History: r.History, Time: r.Time, Event: r.Event, PrevEvent: r.PrevEvent, HistoryEvents: r.HistoryEvents}
}

// demandSeries is a positive demand curve with daily and weekly cycles
// and noise, one point per 15 minutes.
func demandSeries(rng *rand.Rand, n int) []float64 {
	level := 50 + 450*rng.Float64()
	daily, weekly := 0.2+0.3*rng.Float64(), 0.05+0.15*rng.Float64()
	phase := 2 * math.Pi * rng.Float64()
	out := make([]float64, n)
	for t := range out {
		x := float64(t)
		v := level * (1 + daily*math.Sin(2*math.Pi*x/96+phase) + weekly*math.Sin(2*math.Pi*x/672))
		out[t] = math.Max(0.5, v+level*0.05*rng.NormFloat64())
	}
	return out
}

// newUpload builds one instance upload: a seeded LinearAR or GBStumps
// learner whose lags fit the workload's history, and its metrics.
func newUpload(rng *rand.Rand, mi *modelInput, histLen, version int) (uploadInput, error) {
	var m forecast.Model
	if rng.IntN(2) == 0 {
		lags := 16 + rng.IntN(min(histLen, 90)-16)
		theta := make([]float64, 1+lags+4)
		theta[0] = 2 * rng.Float64()
		var sum float64
		for l := 1; l <= lags; l++ {
			theta[l] = math.Exp(-float64(l)/8) * (0.5 + rng.Float64())
			sum += theta[l]
		}
		for l := 1; l <= lags; l++ {
			theta[l] /= sum
		}
		for k := lags + 1; k < len(theta); k++ {
			theta[k] = rng.NormFloat64()
		}
		m = &forecast.LinearAR{Lags: lags, Theta: theta}
	} else {
		lags := 8 + rng.IntN(17)
		g := &forecast.GBStumps{Lags: lags, Rounds: 40 + rng.IntN(81), LearningRate: 0.15, Base: 100 + 200*rng.Float64()}
		for r := 0; r < g.Rounds; r++ {
			f := rng.IntN(lags + 2)
			thr := 50 + 450*rng.Float64()
			switch f {
			case lags:
				thr = float64(rng.IntN(24))
			case lags + 1:
				thr = float64(rng.IntN(7))
			}
			g.Stumps = append(g.Stumps, forecast.Stump{Feature: f, Threshold: thr, Left: 40 * rng.NormFloat64(), Right: 40 * rng.NormFloat64()})
		}
		m = g
	}
	blob, err := forecast.Encode(m)
	if err != nil {
		return uploadInput{}, err
	}
	learner, err := forecast.Decode(blob)
	if err != nil {
		return uploadInput{}, err
	}
	hp, err := json.Marshal(m)
	if err != nil {
		return uploadInput{}, err
	}
	if len(hp) > 256 {
		hp = hp[:256]
	}
	return uploadInput{
		req: api.UploadInstanceRequest{
			Name:         mi.reg.Name,
			City:         mi.city,
			Framework:    "gallery-forecast",
			TrainingData: fmt.Sprintf("hive://marketplace/demand/city=%s/v=%d", mi.city, version),
			CodePointer:  fmt.Sprintf("git://forecast@%016x", rng.Uint64()),
			Seed:         rng.Int64N(1 << 31),
			Epochs:       int64(1 + rng.IntN(50)),
			Hyperparams:  string(hp),
			Features:     "lags,hour_of_day,day_of_week",
			Blob:         blob,
		},
		learner: learner,
		metrics: map[string]float64{
			"mape": 0.02 + 0.38*rng.Float64(),
			"bias": 0.2*rng.Float64() - 0.1,
			"rmse": 1 + 49*rng.Float64(),
		},
	}, nil
}

// listing5 is a paper Listing-5-shaped search: a project or a city, plus
// a metric threshold, so the metric join runs.
func listing5(rng *rand.Rand) api.SearchRequest {
	var c api.SearchConstraint
	if rng.IntN(2) == 0 {
		c = api.SearchConstraint{Field: "project", Operator: "equal", Value: fmt.Sprintf("proj-%02d", rng.IntN(nProjects))}
	} else {
		c = api.SearchConstraint{Field: "city", Operator: "equal", Value: fmt.Sprintf("city-%02d", rng.IntN(nCities))}
	}
	return api.SearchRequest{
		Constraints: []api.SearchConstraint{
			c,
			{Field: "metricName", Operator: "equal", Value: "mape"},
			{Field: "metricValue", Operator: "smaller_than", Number: 0.05 + 0.25*rng.Float64()},
		},
		Limit: 20,
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gallery/internal/api"
	"gallery/internal/blobstore"
	"gallery/internal/client"
	"gallery/internal/core"
	"gallery/internal/forecast"
	"gallery/internal/obs"
	obslog "gallery/internal/obs/log"
	"gallery/internal/obs/trace"
	"gallery/internal/relstore"
	"gallery/internal/rules"
	"gallery/internal/serve"
	"gallery/internal/server"
	"gallery/internal/uuid"
	"gallery/internal/wal"
)

// stack is galleryd and galleryserve assembled in-process from their
// public constructors, wired as the daemons wire them, each behind a
// spanHandler on its own loopback listener.
type stack struct {
	meta   *relstore.Store
	reg    *core.Registry
	regObs *obs.Registry
	engine *rules.Engine
	srv    *server.Server
	gw     *serve.Gateway
	gwObs  *obs.Registry
	h      *serve.Handler
	https  []*http.Server
	gdURL  string
	gsURL  string
}

func newStack(dir string, rec *recorder) (_ *stack, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &stack{regObs: obs.NewRegistry(), gwObs: obs.NewRegistry()}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	if st.meta, err = relstore.Open(filepath.Join(dir, "meta.wal"), wal.Options{}); err != nil {
		return nil, err
	}
	blobs, err := blobstore.NewDisk(filepath.Join(dir, "blobs"), blobstore.Options{})
	if err != nil {
		return nil, err
	}
	st.meta.Instrument(st.regObs)
	blobs.Instrument(st.regObs)
	if st.reg, err = core.New(st.meta, blobs, core.Options{Obs: st.regObs}); err != nil {
		return nil, err
	}
	repo := rules.NewRepo(nil)
	st.engine = rules.NewEngine(st.reg, repo, nil)
	st.engine.RegisterAction("deploy", rules.DeployAction(st.reg))
	st.engine.Start(4)
	sampler, err := trace.ParseSampler("errslow:250ms") // both daemons' default
	if err != nil {
		return nil, err
	}
	st.srv = server.NewWith(st.reg, repo, st.engine, server.Options{
		Obs:    st.regObs,
		Tracer: trace.New(trace.Options{Service: "galleryd", Sampler: sampler}),
		Logs:   obslog.NewRing(1024),
	})
	if st.gdURL, err = st.listen(&spanHandler{name: "server", rec: rec, next: st.srv}); err != nil {
		return nil, err
	}
	gc := client.NewWith(st.gdURL, client.Options{Retries: 3, Actor: "gateway:gateway"})
	gsTracer := trace.New(trace.Options{Service: "galleryserve", Sampler: sampler})
	st.gw = serve.New(&tracedSource{cl: gc, rec: rec}, serve.Options{
		Name:           "gateway",
		Tracer:         gsTracer,
		AuditSink:      gc,
		HealthSink:     gc,
		HealthInterval: 15 * time.Second,
		Obs:            st.gwObs,
	})
	ring := obslog.NewRing(1024)
	st.h = serve.NewHandler(st.gw,
		serve.WithTracer(gsTracer),
		serve.WithLogRing(ring),
		serve.WithAccessLog(slog.New(obslog.NewHandler(ring, obslog.ParseLevel("info"), nil))),
	)
	if st.gsURL, err = st.listen(&spanHandler{name: "serve", rec: rec, next: st.h}); err != nil {
		return nil, err
	}
	return st, nil
}

func (st *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	st.https = append(st.https, hs)
	go func() { _ = hs.Serve(ln) }() // returns ErrServerClosed on close
	return "http://" + ln.Addr().String(), nil
}

func (st *stack) close() {
	for i := len(st.https) - 1; i >= 0; i-- {
		st.https[i].Close()
	}
	if st.gw != nil {
		st.gw.Close()
	}
	if st.srv != nil {
		st.srv.Close()
	}
	if st.engine != nil {
		st.engine.Stop()
	}
	if st.meta != nil {
		st.meta.Close()
	}
}

// tracedSource is the gateway's view of galleryd with a child span around
// each call a predict request makes on a miss.
type tracedSource struct {
	cl  *client.Client
	rec *recorder
}

func (s *tracedSource) ProductionVersion(id string) (api.VersionRecord, error) {
	return s.ProductionVersionCtx(context.Background(), id)
}

func (s *tracedSource) FetchBlob(id string) ([]byte, error) {
	return s.FetchBlobCtx(context.Background(), id)
}

func (s *tracedSource) ProductionVersionCtx(ctx context.Context, id string) (v api.VersionRecord, err error) {
	s.span(ctx, "source.production_version", func() { v, err = s.cl.ProductionVersionCtx(ctx, id) })
	return v, err
}

func (s *tracedSource) FetchBlobCtx(ctx context.Context, id string) (b []byte, err error) {
	s.span(ctx, "source.fetch_blob", func() { b, err = s.cl.FetchBlobCtx(ctx, id) })
	return b, err
}

func (s *tracedSource) span(ctx context.Context, name string, f func()) {
	parent, ok := spanFrom(ctx)
	if !ok { // the refresh loop, not a request
		f()
		return
	}
	id, t0 := s.rec.newID(), s.rec.now()
	f()
	s.rec.add(name, parent.req, id, parent.id, t0, s.rec.now())
}

// tracedResult is what the traced pass measured besides its spans.
type tracedResult struct {
	spans []Span
	offUS map[string][]float64 // client calls timed with spans off

	predictions, loads, evictions int64 // gateway, over the timed predicts
	cacheHits, cacheMisses        int64 // DAL blob cache, over the traced pass
	dispatched, dropped           int64 // rule-engine queue, over the traced pass
	metricInserts                 int
	handlerAllocs                 float64
	handlerAllocN                 int
	lad                           *ladderRegistry
}

// runTraced repeats the run's inputs on an in-process stack with spans at
// every layer boundary, then calls each layer directly on the same inputs
// (the ladder).
func runTraced(ctx context.Context, cfg *config, in *inputs) (*tracedResult, error) {
	rec := newRecorder()
	tr := &tracedResult{offUS: make(map[string][]float64)}
	st, err := newStack(filepath.Join(cfg.workDir, "traced"), rec)
	if err != nil {
		return nil, err
	}
	defer st.close()
	gds, gss := newWorkers(st.gdURL, rec), newWorkers(st.gsURL, rec)
	l := newLedger(in)
	cnt := func(name string) int64 { return st.regObs.Counter(name).Value() }
	gw := func(name string) int64 { return st.gwObs.Counter(name).Value() }
	if err := prefill(ctx, gds, in, l); err != nil {
		return nil, err
	}
	if err := warmup(in, l, gds, gss); err != nil {
		return nil, err
	}
	pred0, load0, evict0 := gw("serve_predictions_total"), gw("serve_model_loads_total"), gw("serve_evictions_total")

	var bad firstErr
	if in.w.rate > 0 {
		p := openLoop(gss, len(in.predict), in.w.rate, predictOp(in.predict, l, "client.predict", &bad))
		if bad.err == nil && p.failed > 0 {
			bad.set(fmt.Errorf("traced pass: %d predicts failed", p.failed))
		}
		tr.predictions, tr.loads, tr.evictions = gw("serve_predictions_total")-pred0, gw("serve_model_loads_total")-load0, gw("serve_evictions_total")-evict0
	} else {
		rr := newRegRun(in, l)
		rr.base = time.Now()
		p := closedLoop(gds, clientLists(in), rr.do)
		rr.settle()
		if err := rr.check(); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		if p.failed > 0 {
			return nil, fmt.Errorf("traced pass: %d ops failed", p.failed)
		}
		st.srv.Flush()
		if err := verifyStore(gds[0].cl, l, true); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		pred0, load0, evict0 = gw("serve_predictions_total"), gw("serve_model_loads_total"), gw("serve_evictions_total")
		if err := verifyServing(gss[0], in, l); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		tr.predictions, tr.loads, tr.evictions = gw("serve_predictions_total")-pred0, gw("serve_model_loads_total")-load0, gw("serve_evictions_total")-evict0
	}
	if bad.err != nil {
		return nil, bad.err
	}
	if err := verifySearches(gds[0], in, l); err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	if in.w.rate > 0 {
		if _, _, err := registryProbe(gds[0], in, l); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
	}
	st.srv.Flush()
	// The stack's registry is private and fresh, so its counters cover
	// exactly this pass.
	tr.cacheHits, tr.cacheMisses = cnt("dal_cache_hits_total"), cnt("dal_cache_misses_total")
	tr.dispatched, tr.dropped = cnt("server_engine_dispatch_total"), cnt("server_engine_dispatch_dropped_total")
	tr.metricInserts = l.metricSet
	for _, w := range append(gds, gss...) {
		for k, v := range w.offUS {
			tr.offUS[k] = append(tr.offUS[k], v...)
		}
	}

	if err := gatewayLadder(rec, st, in, l, tr); err != nil {
		return nil, err
	}
	if tr.lad, err = runLadderRegistry(filepath.Join(cfg.workDir, "ladder"), rec, in); err != nil {
		return nil, err
	}
	tr.spans = rec.all()
	if err := os.MkdirAll(cfg.spanDir, 0o755); err != nil {
		return nil, err
	}
	return tr, rec.writeJSONL(filepath.Join(cfg.spanDir, fmt.Sprintf("%s-%d.jsonl", in.w.name, cfg.seed)))
}

// The ladder's spans share one request ID per rung.
const (
	reqLadderGateway = -1 - iota
	reqLadderForecast
	reqLadderDecode
	reqLadderUpload
	reqLadderMetrics
	reqLadderSearch
	reqLadderProduction
)

// gatewayLadder calls Gateway.PredictCtx, Learner.Forecast and
// forecast.Decode directly on the inputs the traced pass sent, and counts
// the handler's allocations per predict.
func gatewayLadder(rec *recorder, st *stack, in *inputs, l *ledger, tr *tracedResult) error {
	ps := in.predict
	if in.w.rate == 0 {
		for m := range in.models {
			ps = append(ps, in.predictFor(m, m%seriesWindow))
		}
	}
	learners := make([]forecast.Model, len(in.models))
	for m := range learners {
		learners[m] = l.promoted(m).upload.learner
	}
	for _, p := range ps {
		id := rec.newID()
		ctx := withSpan(context.Background(), spanRef{reqLadderGateway, id})
		t0 := rec.now()
		_, err := st.gw.PredictCtx(ctx, l.modelIDs[p.model], toContext(p.req))
		rec.add("ladder.gateway_predict", reqLadderGateway, id, 0, t0, rec.now())
		if err != nil {
			return fmt.Errorf("ladder predict: %w", err)
		}
	}
	for _, p := range ps {
		fctx := toContext(p.req)
		t0 := rec.now()
		learners[p.model].Forecast(fctx)
		rec.add("ladder.forecast", reqLadderForecast, rec.newID(), 0, t0, rec.now())
	}
	reps := max(1, 512/len(in.models))
	for m := range in.models {
		blob := l.promoted(m).upload.req.Blob
		for k := 0; k < reps; k++ {
			t0 := rec.now()
			_, err := forecast.Decode(blob)
			rec.add("ladder.decode", reqLadderDecode, rec.newID(), 0, t0, rec.now())
			if err != nil {
				return fmt.Errorf("ladder decode: %w", err)
			}
		}
	}

	// Allocations of the predict handler on resident models: requests and
	// recorders are built first so that only ServeHTTP is counted.
	resident := make(map[string]bool)
	for _, s := range st.gw.Status() {
		resident[s.ModelID] = true
	}
	var reqs []*http.Request
	var recs []*httptest.ResponseRecorder
	for _, p := range ps {
		if len(reqs) == 256 {
			break
		}
		id := l.modelIDs[p.model]
		if !resident[id] {
			continue
		}
		body, err := json.Marshal(p.req)
		if err != nil {
			return err
		}
		reqs = append(reqs, httptest.NewRequest("POST", "/v1/predict/"+id, bytes.NewReader(body)))
		recs = append(recs, httptest.NewRecorder())
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, r := range reqs {
		st.h.ServeHTTP(recs[i], r)
	}
	runtime.ReadMemStats(&m1)
	for _, rr := range recs {
		if rr.Code != http.StatusOK {
			return fmt.Errorf("ladder handler: status %d: %s", rr.Code, rr.Body.String())
		}
	}
	if len(reqs) > 0 {
		tr.handlerAllocs = float64(m1.Mallocs-m0.Mallocs) / float64(len(reqs))
	}
	tr.handlerAllocN = len(reqs)
	return nil
}

// ladderRegistry replays the run's registry inputs straight into a fresh
// core.Registry, one call at a time, counting what each upload costs each
// layer below it.
type ladderRegistry struct {
	meta  *relstore.Store
	reg   *core.Registry
	obs   *obs.Registry
	rec   *recorder
	walH  *obs.Histogram
	putH  *obs.Histogram
	ids   []uuid.UUID // model IDs
	insts []uuid.UUID // prefill instance IDs

	uploads                      int
	walAppends, blobPuts         int64
	walSec, putSec               float64
	walBytes, mutations, audited int64
	mallocs                      uint64
	heapPerInstance              float64
	heapInstances                int
	searches, scanned, returned  int
	orderedQueries, sorted       int
}

type layerCounts struct {
	walN, putN       int64
	walSum, putSum   float64
	logSize, mut, au int64
}

func (lr *ladderRegistry) counts() layerCounts {
	return layerCounts{
		walN: lr.walH.Count(), walSum: lr.walH.Sum(),
		putN: lr.putH.Count(), putSum: lr.putH.Sum(),
		logSize: lr.meta.LogSize(),
		mut: lr.obs.SumCounters(`relstore_ops_total{op="insert"`) + lr.obs.SumCounters(`relstore_ops_total{op="update"`) +
			lr.obs.SumCounters(`relstore_ops_total{op="delete"`),
		au: lr.obs.SumCounters("audit_events_total"),
	}
}

func runLadderRegistry(dir string, rec *recorder, in *inputs) (*ladderRegistry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lr := &ladderRegistry{obs: obs.NewRegistry(), rec: rec}
	var err error
	if lr.meta, err = relstore.Open(filepath.Join(dir, "meta.wal"), wal.Options{}); err != nil {
		return nil, err
	}
	defer lr.meta.Close()
	blobs, err := blobstore.NewDisk(filepath.Join(dir, "blobs"), blobstore.Options{})
	if err != nil {
		return nil, err
	}
	lr.meta.Instrument(lr.obs)
	blobs.Instrument(lr.obs)
	lr.walH = lr.obs.Histogram("relstore_wal_append_seconds", obs.LatencyBuckets)
	lr.putH = lr.obs.Histogram(obs.Name("blobstore_op_seconds", "op", "put"), obs.LatencyBuckets)
	if lr.reg, err = core.New(lr.meta, blobs, core.Options{Obs: lr.obs}); err != nil {
		return nil, err
	}
	for _, mi := range in.models {
		m, err := lr.reg.RegisterModel(core.ModelSpec{
			BaseVersionID: mi.reg.BaseVersionID, Project: mi.reg.Project, Name: mi.reg.Name,
			Owner: mi.reg.Owner, Team: mi.reg.Team, Domain: mi.reg.Domain, Description: mi.reg.Description,
		})
		if err != nil {
			return nil, err
		}
		lr.ids = append(lr.ids, m.ID)
	}

	heap0 := heapAfterGC()
	lr.insts = make([]uuid.UUID, len(in.models)*in.w.versions)
	for v := 0; v < in.w.versions; v++ {
		for m := range in.models {
			u := &in.models[m].uploads[v]
			id, err := lr.upload(m, u)
			if err != nil {
				return nil, err
			}
			lr.insts[m*in.w.versions+v] = id
			if err := lr.insertMetrics(id, core.ScopeValidation, u.metrics); err != nil {
				return nil, err
			}
		}
	}
	lr.heapInstances = len(lr.insts)
	lr.heapPerInstance = float64(int64(heapAfterGC())-int64(heap0)) / float64(lr.heapInstances)
	for _, p := range in.probe {
		if _, err := lr.upload(p.model, &p.upload); err != nil {
			return nil, err
		}
		if err := lr.search(p.search); err != nil {
			return nil, err
		}
	}

	opIDs := make(map[int]uuid.UUID)
	target := func(ref instRef) uuid.UUID {
		if ref.prefill >= 0 {
			return lr.insts[ref.prefill]
		}
		return opIDs[ref.op]
	}
	for i, op := range in.ops {
		switch op.kind {
		case opUpload:
			id, err := lr.upload(op.model, op.upload)
			if err != nil {
				return nil, err
			}
			opIDs[i] = id
		case opMetrics:
			if err := lr.insertMetrics(target(op.target), runMetricScope, op.values); err != nil {
				return nil, err
			}
		case opSearch:
			if err := lr.search(op.search); err != nil {
				return nil, err
			}
		case opProduction:
			if err := lr.production(op.model); err != nil {
				return nil, err
			}
		}
	}
	for _, s := range in.searches {
		if err := lr.search(s); err != nil {
			return nil, err
		}
	}
	reps := max(1, 512/len(in.models))
	for k := 0; k < reps; k++ {
		for m := range in.models {
			if err := lr.production(m); err != nil {
				return nil, err
			}
		}
	}
	return lr, nil
}

func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// upload calls UploadInstanceCtx under a span and charges the counters
// and allocations it caused to the upload.
func (lr *ladderRegistry) upload(m int, u *uploadInput) (uuid.UUID, error) {
	spec := core.InstanceSpec{
		ModelID: lr.ids[m], Name: u.req.Name, City: u.req.City, Framework: u.req.Framework,
		TrainingData: u.req.TrainingData, CodePointer: u.req.CodePointer, Seed: u.req.Seed,
		Epochs: u.req.Epochs, Hyperparams: u.req.Hyperparams, Features: u.req.Features,
	}
	c0 := lr.counts()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id, t0 := lr.rec.newID(), lr.rec.now()
	inst, err := lr.reg.UploadInstanceCtx(context.Background(), spec, u.req.Blob)
	t1 := lr.rec.now()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return uuid.UUID{}, fmt.Errorf("ladder upload: %w", err)
	}
	lr.rec.add("ladder.core_upload", reqLadderUpload, id, 0, t0, t1)
	c1 := lr.counts()
	lr.uploads++
	lr.mallocs += m1.Mallocs - m0.Mallocs
	lr.walAppends += c1.walN - c0.walN
	lr.walSec += c1.walSum - c0.walSum
	lr.blobPuts += c1.putN - c0.putN
	lr.putSec += c1.putSum - c0.putSum
	lr.walBytes += c1.logSize - c0.logSize
	lr.mutations += c1.mut - c0.mut
	lr.audited += c1.au - c0.au
	return inst.ID, nil
}

func (lr *ladderRegistry) insertMetrics(id uuid.UUID, scope core.Scope, values map[string]float64) error {
	t0 := lr.rec.now()
	err := lr.reg.InsertMetrics(id, scope, values)
	lr.rec.add("ladder.core_insert_metrics", reqLadderMetrics, lr.rec.newID(), 0, t0, lr.rec.now())
	if err != nil {
		return fmt.Errorf("ladder insert metrics: %w", err)
	}
	return nil
}

func (lr *ladderRegistry) production(m int) error {
	t0 := lr.rec.now()
	_, err := lr.reg.ProductionVersionCtx(context.Background(), lr.ids[m])
	lr.rec.add("ladder.core_production_version", reqLadderProduction, lr.rec.newID(), 0, t0, lr.rec.now())
	if err != nil {
		return fmt.Errorf("ladder production version: %w", err)
	}
	return nil
}

// search runs one search under a span, then explains the two relstore
// queries SearchInstances issues for it: the metric-join lookup and the
// ordered instance scan.
func (lr *ladderRegistry) search(s api.SearchRequest) error {
	f, err := server.FilterFromSearch(s)
	if err != nil {
		return err
	}
	t0 := lr.rec.now()
	found, err := lr.reg.SearchInstances(f)
	lr.rec.add("ladder.core_search", reqLadderSearch, lr.rec.newID(), 0, t0, lr.rec.now())
	if err != nil {
		return fmt.Errorf("ladder search: %w", err)
	}
	lr.searches++
	lr.returned += len(found)
	for _, q := range searchQueries(f) {
		_, ex, err := lr.meta.SelectExplain(q)
		if err != nil {
			return fmt.Errorf("ladder explain: %w", err)
		}
		lr.scanned += ex.Scanned
		if q.OrderBy != "" {
			lr.orderedQueries++
			if !ex.Ordered {
				lr.sorted++
			}
		}
	}
	return nil
}

// searchQueries rebuilds the relstore queries core.SearchInstances runs
// for a Listing-5 filter (metadata equality, live instances only, and a
// metric condition, which keeps the limit out of the instance scan).
func searchQueries(f core.InstanceFilter) []relstore.Query {
	var where []relstore.Constraint
	for _, c := range [][2]string{{"project", f.Project}, {"city", f.City}, {"name", f.Name}} {
		if c[1] != "" {
			where = append(where, relstore.Constraint{Field: c[0], Op: relstore.OpEq, Value: relstore.String(c[1])})
		}
	}
	where = append(where, relstore.Constraint{Field: "deprecated", Op: relstore.OpEq, Value: relstore.Bool(false)})
	qs := []relstore.Query{{Table: core.TableInstances, Where: where, OrderBy: "created", Desc: true}}
	if f.MetricName != "" {
		qs = append(qs, relstore.Query{Table: core.TableMetrics, Where: []relstore.Constraint{
			{Field: "name", Op: relstore.OpEq, Value: relstore.String(f.MetricName)},
			{Field: "value", Op: f.MetricOp, Value: relstore.Float(f.MetricValue)},
		}})
	} else {
		qs[0].Limit = f.Limit
	}
	return qs
}

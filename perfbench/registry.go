package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"gallery/internal/api"
	"gallery/internal/client"
)

type opKind int

const (
	opUpload opKind = iota
	opMetrics
	opSearch
	opProduction
	opGet
	nOpKinds
)

var opNames = [nOpKinds]string{"upload", "insert_metrics", "search", "production_version", "get_instance"}

// regOp is one op of the fixed registry sequence. Ops alternate between
// the two clients; an op only refers to prefill instances or to uploads
// its own client made earlier, so every reference exists when it runs.
type regOp struct {
	kind   opKind
	client int
	model  int                // opUpload, opProduction
	upload *uploadInput       // opUpload
	target instRef            // opMetrics, opGet
	values map[string]float64 // opMetrics
	search api.SearchRequest  // opSearch
}

// instRef names an instance by its place in the inputs: a prefill upload
// (model*versions+version), or else the earlier upload op at index op.
type instRef struct{ prefill, op int }

// runMetricScope is the scope of metrics inserted during the timed phase;
// the prefill reports validation metrics.
const runMetricScope = "production"

func (in *inputs) opSequence(rng *rand.Rand, n int) ([]regOp, error) {
	ops := make([]regOp, n)
	own := [2][]int{}
	nPrefill := in.w.models * in.w.versions
	target := func(c int) instRef {
		if len(own[c]) > 0 && rng.IntN(2) == 0 {
			return instRef{prefill: -1, op: own[c][rng.IntN(len(own[c]))]}
		}
		return instRef{prefill: rng.IntN(nPrefill)}
	}
	nextVersion := make([]int, in.w.models)
	for i := range ops {
		c := i % 2
		op := regOp{client: c}
		switch r := rng.Float64(); {
		case r < 0.25:
			op.kind, op.model = opUpload, rng.IntN(in.w.models)
			mi := &in.models[op.model]
			u, err := newUpload(rng, mi, in.w.histLen, in.w.versions+nextVersion[op.model])
			if err != nil {
				return nil, err
			}
			nextVersion[op.model]++
			op.upload = &u
			own[c] = append(own[c], i)
		case r < 0.50:
			op.kind, op.target = opMetrics, target(c)
			op.values = map[string]float64{"mape": 0.02 + 0.38*rng.Float64(), "bias": 0.2*rng.Float64() - 0.1}
		case r < 0.60:
			op.kind, op.search = opSearch, listing5(rng)
		case r < 0.80:
			op.kind, op.model = opProduction, rng.IntN(in.w.models)
		default:
			op.kind, op.target = opGet, target(c)
		}
		ops[i] = op
	}
	return ops, nil
}

// instRec is what the benchmark knows about one stored instance. send and
// ack bound when its upload could have been applied, relative to the
// start of the timed phase; prefill instances were acknowledged before it.
type instRec struct {
	id        string
	model     int
	project   string
	city      string
	created   time.Time
	send, ack time.Duration
	upload    *uploadInput
}

type metricRec struct {
	name      string
	value     float64
	send, ack time.Duration
}

// ledger is the benchmark's own account of every acknowledged write, kept
// to check what the daemons return.
type ledger struct {
	in        *inputs
	modelIDs  []string
	prefill   []*instRec // model*versions+version
	insts     map[string]*instRec
	byModel   [][]*instRec
	metrics   map[string][]metricRec // instance id → run-phase metrics
	failed    int                    // writes that failed and may or may not have landed
	metricSet int                    // metric-insert requests acknowledged (prefill and run)
	nMetrics  int                    // metric rows acknowledged
}

func newLedger(in *inputs) *ledger {
	return &ledger{
		in:       in,
		insts:    make(map[string]*instRec),
		byModel:  make([][]*instRec, in.w.models),
		metrics:  make(map[string][]metricRec),
		modelIDs: make([]string, in.w.models),
		prefill:  make([]*instRec, in.w.models*in.w.versions),
	}
}

func (l *ledger) addInstance(r *instRec) {
	l.insts[r.id] = r
	l.byModel[r.model] = append(l.byModel[r.model], r)
}

// promoted is the newest acknowledged instance of model m.
func (l *ledger) promoted(m int) *instRec {
	var best *instRec
	for _, r := range l.byModel[m] {
		if best == nil || r.created.After(best.created) {
			best = r
		}
	}
	return best
}

// prefill registers every model and uploads its instances with their
// validation metrics. Each of the two workers owns half the models and
// uploads each model's versions in order, so a model's last prefill
// upload is its promoted instance.
func prefill(ctx context.Context, ws []*worker, in *inputs, l *ledger) error {
	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		errs    [2]error
		epochAt = -time.Hour // acknowledged long before the timed phase
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wk := ws[w]
			for m := w; m < len(in.models); m += 2 {
				var mod api.Model
				err := wk.call("client.register_model", func() (err error) {
					mod, err = wk.cl.RegisterModel(in.models[m].reg)
					return err
				})
				if err != nil {
					errs[w] = fmt.Errorf("register model %d: %w", m, err)
					return
				}
				l.modelIDs[m] = mod.ID
			}
			for v := 0; v < in.w.versions; v++ {
				for m := w; m < len(in.models); m += 2 {
					if ctx.Err() != nil {
						errs[w] = ctx.Err()
						return
					}
					mi := &in.models[m]
					u := &mi.uploads[v]
					req := u.req
					req.ModelID = l.modelIDs[m]
					var inst api.Instance
					err := wk.call("client.upload", func() (err error) {
						inst, err = wk.cl.UploadInstance(req)
						return err
					})
					if err != nil {
						errs[w] = fmt.Errorf("prefill upload: %w", err)
						return
					}
					err = wk.call("client.insert_metrics", func() error {
						return wk.cl.InsertMetrics(inst.ID, "validation", u.metrics)
					})
					if err != nil {
						errs[w] = fmt.Errorf("prefill metrics: %w", err)
						return
					}
					rec := &instRec{id: inst.ID, model: m, project: mi.project, city: mi.city,
						created: inst.Created, send: epochAt, ack: epochAt, upload: u}
					mu.Lock()
					l.prefill[m*in.w.versions+v] = rec
					l.addInstance(rec)
					l.metricSet++
					l.nMetrics += len(u.metrics)
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs[:]...)
}

// opResult is one op's outcome, kept for checking after the timed phase.
type opResult struct {
	send, done time.Duration
	err        error
	inst       api.Instance      // opUpload, opGet
	version    api.VersionRecord // opProduction
	found      []api.Instance    // opSearch
}

// regRun executes the fixed op sequence against one galleryd.
type regRun struct {
	in   *inputs
	l    *ledger
	base time.Time
	res  []opResult
}

func newRegRun(in *inputs, l *ledger) *regRun {
	return &regRun{in: in, l: l, res: make([]opResult, len(in.ops))}
}

// instanceID resolves a reference; ok is false when it names an upload
// that failed.
func (r *regRun) instanceID(ref instRef) (string, bool) {
	if ref.prefill >= 0 {
		return r.l.prefill[ref.prefill].id, true
	}
	res := &r.res[ref.op]
	return res.inst.ID, res.err == nil
}

// do runs op i on w and records its outcome.
func (r *regRun) do(w *worker, i int) error {
	op := &r.in.ops[i]
	res := &r.res[i]
	cl := w.cl
	res.send = time.Since(r.base)
	err := w.call("client."+opNames[op.kind], func() error { return r.send(cl, op, res, i) })
	res.done = time.Since(r.base)
	res.err = err
	return err
}

func (r *regRun) send(cl *client.Client, op *regOp, res *opResult, i int) (err error) {
	switch op.kind {
	case opUpload:
		req := op.upload.req
		req.ModelID = r.l.modelIDs[op.model]
		res.inst, err = cl.UploadInstance(req)
	case opMetrics:
		id, ok := r.instanceID(op.target)
		if !ok {
			err = fmt.Errorf("op %d: target upload failed", i)
			break
		}
		err = cl.InsertMetrics(id, runMetricScope, op.values)
	case opSearch:
		res.found, err = cl.Search(op.search)
	case opProduction:
		res.version, err = cl.ProductionVersion(r.l.modelIDs[op.model])
	case opGet:
		id, ok := r.instanceID(op.target)
		if !ok {
			err = fmt.Errorf("op %d: target upload failed", i)
			break
		}
		res.inst, err = cl.GetInstance(id)
	}
	return err
}

// settle folds the acknowledged writes of the timed phase into the
// ledger, in op order.
func (r *regRun) settle() {
	for i := range r.in.ops {
		op, res := &r.in.ops[i], &r.res[i]
		switch op.kind {
		case opUpload:
			if res.err != nil {
				r.l.failed++
				continue
			}
			mi := &r.in.models[op.model]
			r.l.addInstance(&instRec{id: res.inst.ID, model: op.model, project: mi.project, city: mi.city,
				created: res.inst.Created, send: res.send, ack: res.done, upload: op.upload})
		case opMetrics:
			id, ok := r.instanceID(op.target)
			if res.err != nil {
				r.l.failed++
				continue
			}
			if !ok {
				continue
			}
			names := make([]string, 0, len(op.values))
			for n := range op.values {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				r.l.metrics[id] = append(r.l.metrics[id], metricRec{name: n, value: op.values[n], send: res.send, ack: res.done})
			}
			r.l.metricSet++
			r.l.nMetrics += len(op.values)
		}
	}
}

// check verifies every successful read of the timed phase against the
// ledger, allowing for writes that overlapped it: a write acknowledged
// before a read was sent must be visible to it, and a write sent after
// the read returned must not be. It returns the first mismatch.
func (r *regRun) check() error {
	for i := range r.in.ops {
		op, res := &r.in.ops[i], &r.res[i]
		if res.err != nil {
			continue
		}
		var err error
		switch op.kind {
		case opSearch:
			err = r.l.checkSearch(op.search, res.found, res.send, res.done)
		case opProduction:
			err = r.l.checkProduction(op.model, res.version, res.send, res.done)
		case opGet:
			id, _ := r.instanceID(op.target)
			err = r.l.checkInstance(id, res.inst)
		case opUpload:
			err = r.l.checkInstance(res.inst.ID, res.inst)
		}
		if err != nil {
			return fmt.Errorf("op %d (%s): %w", i, opNames[op.kind], err)
		}
	}
	return nil
}

func (l *ledger) checkInstance(id string, got api.Instance) error {
	rec := l.insts[id]
	if rec == nil {
		return fmt.Errorf("instance %s is not one the benchmark uploaded", id)
	}
	u := rec.upload.req
	if got.ID != id || got.ModelID != l.modelIDs[rec.model] || got.Project != rec.project ||
		got.City != u.City || got.Name != u.Name || got.TrainingData != u.TrainingData ||
		got.CodePointer != u.CodePointer || got.Seed != u.Seed || got.Hyperparams != u.Hyperparams ||
		!got.Created.Equal(rec.created) || got.Deprecated {
		return fmt.Errorf("instance %s: stored fields differ from the upload", id)
	}
	return nil
}

// checkProduction: the promoted instance of a model is its newest upload
// applied by the time of the read.
func (l *ledger) checkProduction(m int, v api.VersionRecord, send, done time.Duration) error {
	got := l.insts[v.InstanceID]
	if got == nil || got.model != m || got.send >= done {
		return fmt.Errorf("model %d: production instance %q was not uploaded to it before the read", m, v.InstanceID)
	}
	if !v.Production || v.ModelID != l.modelIDs[m] {
		return fmt.Errorf("model %d: version %s is not its production version", m, v.ID)
	}
	for _, r := range l.byModel[m] {
		if r.ack < send && r.created.After(got.created) {
			return fmt.Errorf("model %d: production is %s, but newer %s was acknowledged before the read", m, got.id, r.id)
		}
	}
	return nil
}

// searchPred is the instance predicate of a Listing-5 search.
type searchPred struct {
	project, city string
	metric        string
	below         float64
	limit         int
}

func predOf(s api.SearchRequest) searchPred {
	p := searchPred{limit: s.Limit}
	for _, c := range s.Constraints {
		switch c.Field {
		case "project":
			p.project = c.Value
		case "city":
			p.city = c.Value
		case "metricName":
			p.metric = c.Value
		case "metricValue":
			p.below = c.Number
		}
	}
	return p
}

// matches reports whether r satisfies p counting only metric writes for
// which visible(send, ack) holds.
func (l *ledger) matches(p searchPred, r *instRec, visible func(send, ack time.Duration) bool) bool {
	if (p.project != "" && r.project != p.project) || (p.city != "" && r.city != p.city) {
		return false
	}
	if r.send < 0 { // prefill metrics
		if v, ok := r.upload.metrics[p.metric]; ok && v < p.below {
			return true
		}
	}
	for _, m := range l.metrics[r.id] {
		if m.name == p.metric && m.value < p.below && visible(m.send, m.ack) {
			return true
		}
	}
	return false
}

func (l *ledger) checkSearch(s api.SearchRequest, found []api.Instance, send, done time.Duration) error {
	p := predOf(s)
	if p.limit > 0 && len(found) > p.limit {
		return fmt.Errorf("search returned %d rows over limit %d", len(found), p.limit)
	}
	possible := func(s, _ time.Duration) bool { return s < done }
	definite := func(_, a time.Duration) bool { return a < send }
	seen := make(map[string]bool, len(found))
	for i, f := range found {
		r := l.insts[f.ID]
		if r == nil || r.send >= done || !l.matches(p, r, possible) {
			return fmt.Errorf("search result %s does not match %+v", f.ID, p)
		}
		if !f.Created.Equal(r.created) {
			return fmt.Errorf("search result %s: created time differs from its upload", f.ID)
		}
		if i > 0 && f.Created.After(found[i-1].Created) {
			return fmt.Errorf("search results are not newest first")
		}
		seen[f.ID] = true
	}
	var must []*instRec
	for _, r := range l.insts {
		if r.ack < send && l.matches(p, r, definite) {
			must = append(must, r)
		}
	}
	if len(must) >= p.limit && len(found) < p.limit {
		return fmt.Errorf("search returned %d rows, but %d acknowledged instances match", len(found), len(must))
	}
	var oldest time.Time
	if len(found) > 0 {
		oldest = found[len(found)-1].Created
	}
	for _, r := range must {
		if !seen[r.id] && (len(found) < p.limit || r.created.After(oldest)) {
			return fmt.Errorf("search missed acknowledged instance %s", r.id)
		}
	}
	return nil
}

// verifyStore reads back every acknowledged write: each model's lineage,
// each run-phase metric series, and the store counts in /v1/stats. With
// dispatch set it also checks that every metric insert reached the rule
// engine's queue (the counters do not survive a restart).
func verifyStore(cl *client.Client, l *ledger, dispatch bool) error {
	for m, id := range l.modelIDs {
		got, err := cl.Lineage(l.in.models[m].reg.BaseVersionID)
		if err != nil {
			return fmt.Errorf("lineage of model %d: %w", m, err)
		}
		extra := 0
		want := make(map[string]bool, len(l.byModel[m]))
		for _, r := range l.byModel[m] {
			want[r.id] = true
		}
		for _, g := range got {
			if g.ModelID != id {
				return fmt.Errorf("lineage of model %d lists instance %s of model %s", m, g.ID, g.ModelID)
			}
			if !want[g.ID] {
				extra++
				continue
			}
			if err := l.checkInstance(g.ID, g); err != nil {
				return err
			}
			delete(want, g.ID)
		}
		if len(want) > 0 {
			return fmt.Errorf("model %d: %d acknowledged uploads are missing", m, len(want))
		}
		if extra > l.failed {
			return fmt.Errorf("model %d: %d instances the benchmark never had acknowledged", m, extra)
		}
	}
	for id, ms := range l.metrics {
		for _, name := range []string{"mape", "bias"} {
			series, err := cl.MetricSeries(id, name, runMetricScope)
			if err != nil {
				return fmt.Errorf("metric series %s/%s: %w", id, name, err)
			}
			var want, got []float64
			for _, m := range ms {
				if m.name == name {
					want = append(want, m.value)
				}
			}
			for _, s := range series {
				got = append(got, s.Value)
			}
			sort.Float64s(want)
			sort.Float64s(got)
			if fmt.Sprint(want) != fmt.Sprint(got) && l.failed == 0 {
				return fmt.Errorf("instance %s metric %s: stored %v, acknowledged %v", id, name, got, want)
			}
		}
	}
	st, err := cl.Stats()
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	if l.failed == 0 {
		if st.Models != len(l.modelIDs) || st.Instances != len(l.insts) || st.Metrics != l.nMetrics {
			return fmt.Errorf("stats counts models=%d instances=%d metrics=%d, acknowledged %d/%d/%d",
				st.Models, st.Instances, st.Metrics, len(l.modelIDs), len(l.insts), l.nMetrics)
		}
		if dispatch && st.EngineDispatches+st.EngineDrops != int64(l.metricSet) {
			return fmt.Errorf("rule engine saw %d+%d metric events, acknowledged %d inserts",
				st.EngineDispatches, st.EngineDrops, l.metricSet)
		}
	}
	return nil
}

// verifyServing predicts once on every model through the gateway and
// checks that the answer comes from the model's newest acknowledged
// instance and equals that learner's forecast.
func verifyServing(w *worker, in *inputs, l *ledger) error {
	for m := range in.models {
		p := in.predictFor(m, m%seriesWindow)
		want := l.promoted(m)
		var resp api.PredictResponse
		err := w.call("client.predict", func() (err error) {
			resp, err = w.cl.Predict(l.modelIDs[m], p.req)
			return err
		})
		if err != nil {
			return fmt.Errorf("predict model %d: %w", m, err)
		}
		if err := checkPredict(resp, want.id, want.upload.learner.Forecast(toContext(p.req))); err != nil {
			return fmt.Errorf("model %d: %w", m, err)
		}
	}
	return nil
}

// checkPredict compares a gateway answer with the expected instance and
// forecast. The forecast must agree to 1e-9 relative: the same learner on
// the same context, allowing only for reassociated float arithmetic.
func checkPredict(resp api.PredictResponse, instanceID string, want float64) error {
	if resp.InstanceID != instanceID {
		return fmt.Errorf("served by instance %s, promoted is %s", resp.InstanceID, instanceID)
	}
	if math.Abs(resp.Value-want) > 1e-9*max(1, math.Abs(want)) {
		return fmt.Errorf("forecast %v, want %v", resp.Value, want)
	}
	if resp.Stale {
		return fmt.Errorf("answer marked stale")
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"gallery/internal/api"
	"gallery/internal/client"
	"gallery/internal/obs"
)

// idleWindow is how long the traced run watches the daemons sit idle
// after the timed phase, to price their periodic background work.
const idleWindow = 5 * time.Second

// restarts is how many times the crash-restart check kills and restarts
// galleryd.
const restarts = 3

// realResult is what one pass over the real daemons measured.
type realResult struct {
	setupS   []float64
	uploadMS []float64 // predict workloads: the registry probe's uploads
	searchMS []float64 // predict workloads: the registry probe's searches
	ops      *phase
	byKind   [nOpKinds][]float64 // registry_mixed: latency per op kind
	cpu      cpuUS               // both daemons over the timed phase
	rss      int64
	restartS []float64
	walBytes int64
	disk     int64 // galleryd's data dir after the timed phase

	// Traced run only.
	gcRuns   [2]float64 // galleryd, galleryserve GC cycles in the timed phase
	idleCPU  cpuUS
	idleWall time.Duration
}

// firstErr keeps the first error reported from any goroutine.
type firstErr struct {
	once sync.Once
	err  error
}

func (f *firstErr) set(err error) { f.once.Do(func() { f.err = err }) }

// runReal launches the real daemons, prefills them, runs the timed phase,
// checks every output and finishes with the crash-restart check.
func runReal(ctx context.Context, cfg *config, in *inputs) (*realResult, error) {
	r := &realResult{}
	nSetups := in.w.setups
	if cfg.trace {
		nSetups = 1
	}
	var (
		c   *cluster
		l   *ledger
		gds []*worker
		gss []*worker
		dir string
	)
	defer func() {
		if c != nil {
			c.stop()
		}
	}()
	for k := 0; k < nSetups; k++ {
		if c != nil {
			// Earlier set-ups' data stays until the run ends: deleting
			// thousands of blob files costs the filesystem work that
			// would land in the timed phase.
			c.stop()
		}
		dir = filepath.Join(cfg.workDir, fmt.Sprintf("real-%d", k))
		t0 := time.Now()
		var err error
		if c, err = launch(cfg.binDir, dir); err != nil {
			return nil, err
		}
		gds, gss = newWorkers(c.gdURL, nil), newWorkers(c.gsURL, nil)
		l = newLedger(in)
		if err := prefill(ctx, gds, in, l); err != nil {
			return nil, err
		}
		if err := warmup(in, l, gds, gss); err != nil {
			return nil, err
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
	}

	var m0 [2]obs.Snapshot
	if cfg.trace {
		var err error
		if m0, err = debugMetrics(gds[0].cl, gss[0].cl); err != nil {
			return nil, err
		}
	}
	cpu0, err := c.cpu()
	if err != nil {
		return nil, err
	}
	var rr *regRun
	var bad firstErr
	if in.w.rate > 0 {
		r.ops = openLoop(gss, len(in.predict), in.w.rate, predictOp(in.predict, l, "client.predict", &bad))
	} else {
		rr = newRegRun(in, l)
		rr.base = time.Now()
		r.ops = closedLoop(gds, clientLists(in), rr.do)
	}
	cpu1, err := c.cpu()
	if err != nil {
		return nil, err
	}
	r.cpu = cpu1.sub(cpu0)
	if r.rss, err = c.rssBytes(); err != nil {
		return nil, err
	}
	if r.disk, err = dirBytes(filepath.Join(dir, "galleryd")); err != nil {
		return nil, err
	}
	if cfg.trace {
		m1, err := debugMetrics(gds[0].cl, gss[0].cl)
		if err != nil {
			return nil, err
		}
		for k := range m1 {
			r.gcRuns[k] = m1[k].Gauges["runtime_gc_runs_total"] - m0[k].Gauges["runtime_gc_runs_total"]
		}
		i0, err := c.cpu()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		time.Sleep(idleWindow)
		i1, err := c.cpu()
		if err != nil {
			return nil, err
		}
		r.idleCPU, r.idleWall = i1.sub(i0), time.Since(t0)
	}
	if bad.err != nil {
		return nil, bad.err
	}
	if rr != nil {
		rr.settle()
		if err := rr.check(); err != nil {
			return nil, err
		}
		for i, op := range in.ops {
			if res := &rr.res[i]; res.err == nil {
				r.byKind[op.kind] = append(r.byKind[op.kind], ms(res.done-res.send))
			}
		}
	}

	cl := gds[0].cl
	if err := verifyStore(cl, l, true); err != nil {
		return nil, fmt.Errorf("after the timed phase: %w", err)
	}
	if err := verifySearches(gds[0], in, l); err != nil {
		return nil, err
	}
	if in.w.rate > 0 {
		if r.uploadMS, r.searchMS, err = registryProbe(gds[0], in, l); err != nil {
			return nil, err
		}
	}
	if r.walBytes, err = c.walBytes(); err != nil {
		return nil, err
	}
	for k := 0; k < restarts; k++ {
		d, err := c.restartGalleryd()
		if err != nil {
			return nil, err
		}
		r.restartS = append(r.restartS, d.Seconds())
	}
	cl = newWorkers(c.gdURL, nil)[0].cl
	if err := verifyStore(cl, l, false); err != nil {
		return nil, fmt.Errorf("after restart: %w", err)
	}
	if in.w.rate == 0 {
		if err := verifyServing(gss[0], in, l); err != nil {
			return nil, fmt.Errorf("after restart: %w", err)
		}
	}
	c.stop()
	c = nil
	return r, nil
}

// warmup sends a fixed amount of work before timing: predicts on the
// predict workloads (loading every model into the gateway), point reads
// on registry_mixed.
func warmup(in *inputs, l *ledger, gds, gss []*worker) error {
	var bad firstErr
	if in.w.rate > 0 {
		p := closedLoop(gss, split(len(in.warmup)), predictOp(in.warmup, l, "client.warmup_predict", &bad))
		if bad.err == nil && p.failed > 0 {
			bad.set(fmt.Errorf("%d warm-up predicts failed", p.failed))
		}
		return bad.err
	}
	closedLoop(gds, split(256), func(w *worker, i int) error {
		rec := l.prefill[(i*7919)%len(l.prefill)]
		var got api.Instance
		err := w.call("client.warmup_get_instance", func() (err error) {
			got, err = w.cl.GetInstance(rec.id)
			return err
		})
		if err == nil {
			err = l.checkInstance(rec.id, got)
		}
		if err != nil {
			bad.set(fmt.Errorf("warm-up read %d: %w", i, err))
		}
		return err
	})
	return bad.err
}

// predictOp sends predict i of ps and checks the answer against the
// promoted instance and its precomputed forecast; a mismatch goes to bad.
func predictOp(ps []predictInput, l *ledger, name string, bad *firstErr) func(*worker, int) error {
	promoted := promotedIDs(l)
	return func(w *worker, i int) error {
		p := &ps[i]
		var resp api.PredictResponse
		err := w.call(name, func() (err error) {
			resp, err = w.cl.Predict(l.modelIDs[p.model], p.req)
			return err
		})
		if err != nil {
			return err
		}
		if err := checkPredict(resp, promoted[p.model], p.want); err != nil {
			bad.set(fmt.Errorf("predict %d on model %d: %w", i, p.model, err))
		}
		return nil
	}
}

// split deals op indices 0..n-1 alternately to the two workers.
func split(n int) [][]int {
	lists := make([][]int, maxConns)
	for i := 0; i < n; i++ {
		lists[i%maxConns] = append(lists[i%maxConns], i)
	}
	return lists
}

// clientLists gives each worker the ops of its client.
func clientLists(in *inputs) [][]int {
	lists := make([][]int, maxConns)
	for i, op := range in.ops {
		lists[op.client] = append(lists[op.client], i)
	}
	return lists
}

func promotedIDs(l *ledger) []string {
	ids := make([]string, len(l.modelIDs))
	for m := range ids {
		ids[m] = l.promoted(m).id
	}
	return ids
}

// verifySearches runs the workload's check searches on a quiet store.
func verifySearches(w *worker, in *inputs, l *ledger) error {
	for i, s := range in.searches {
		var found []api.Instance
		err := w.call("client.search", func() (err error) {
			found, err = w.cl.Search(s)
			return err
		})
		if err == nil {
			err = l.checkSearch(s, found, time.Hour, time.Hour)
		}
		if err != nil {
			return fmt.Errorf("check search %d: %w", i, err)
		}
	}
	return nil
}

// registryProbe gives the predict workloads their upload and search
// figures, on the quiet galleryd after the timed phase, one call at a
// time: first the Listing-5 searches, then an upload of a new version of
// a model for each, so that no search waits behind a blob write. Every
// answer is checked.
func registryProbe(w *worker, in *inputs, l *ledger) (upMS, searchMS []float64, err error) {
	for i := range in.probe {
		p := &in.probe[i]
		var found []api.Instance
		t0 := time.Now()
		err := w.call("client.search", func() (err error) {
			found, err = w.cl.Search(p.search)
			return err
		})
		searchMS = append(searchMS, ms(time.Since(t0)))
		if err == nil {
			err = l.checkSearch(p.search, found, time.Hour, time.Hour)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("probe search %d: %w", i, err)
		}
	}
	for i := range in.probe {
		p := &in.probe[i]
		req := p.upload.req
		req.ModelID = l.modelIDs[p.model]
		var inst api.Instance
		t0 := time.Now()
		err := w.call("client.upload", func() (err error) {
			inst, err = w.cl.UploadInstance(req)
			return err
		})
		upMS = append(upMS, ms(time.Since(t0)))
		if err != nil {
			return nil, nil, fmt.Errorf("probe upload %d: %w", i, err)
		}
		mi := &in.models[p.model]
		l.addInstance(&instRec{id: inst.ID, model: p.model, project: mi.project, city: mi.city, created: inst.Created, upload: &p.upload})
		if err := l.checkInstance(inst.ID, inst); err != nil {
			return nil, nil, fmt.Errorf("probe upload %d: %w", i, err)
		}
	}
	return upMS, searchMS, nil
}

// debugMetrics reads both daemons' metric registries.
func debugMetrics(gd, gs *client.Client) ([2]obs.Snapshot, error) {
	var out [2]obs.Snapshot
	for k, cl := range []*client.Client{gd, gs} {
		raw, err := cl.DebugMetrics()
		if err != nil {
			return out, fmt.Errorf("debug metrics: %w", err)
		}
		if err := json.Unmarshal(raw, &out[k]); err != nil {
			return out, fmt.Errorf("debug metrics: %w", err)
		}
	}
	return out, nil
}

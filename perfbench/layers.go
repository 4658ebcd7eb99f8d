package main

import (
	"fmt"
	"strings"
	"time"
)

// spanIndex answers the per-layer questions over one traced run's spans.
type spanIndex struct {
	spans []Span
	kids  map[int64][]Span
	self  map[int64]time.Duration
}

func newSpanIndex(spans []Span) *spanIndex {
	ix := &spanIndex{spans: spans, kids: make(map[int64][]Span), self: selfTimes(spans)}
	for _, s := range spans {
		if s.Parent != 0 {
			ix.kids[s.Parent] = append(ix.kids[s.Parent], s)
		}
	}
	return ix
}

// durUS lists the durations, in microseconds, of spans named name that
// satisfy keep (nil keeps all).
func (ix *spanIndex) durUS(name string, keep func(Span) bool) []float64 {
	var out []float64
	for _, s := range ix.spans {
		if s.Name == name && (keep == nil || keep(s)) {
			out = append(out, us(s.dur()))
		}
	}
	return out
}

// child returns s's first child whose name starts with prefix.
func (ix *spanIndex) child(s Span, prefix string) (Span, bool) {
	for _, k := range ix.kids[s.ID] {
		if strings.HasPrefix(k.Name, prefix) {
			return k, true
		}
	}
	return Span{}, false
}

func (ix *spanIndex) hasKids(s Span) bool { return len(ix.kids[s.ID]) > 0 }

// layerMedian adds a per-layer metric from a sample, reporting 0 with n=0
// when the workload gave the layer no samples.
func layerMedian(rep *report, name string, xs []float64, base string) float64 {
	if len(xs) == 0 {
		rep.add(name, "us", 0, 0, "no samples on this workload")
		return 0
	}
	v := median(xs)
	rep.add(name, "us", v, len(xs), base)
	return v
}

// layerDelta adds a difference of two medians (one rung of the ladder).
func layerDelta(rep *report, name string, upper, lower []float64, base string) {
	if len(upper) == 0 || len(lower) == 0 {
		rep.add(name, "us", 0, 0, "no samples on this workload")
		return
	}
	rep.add(name, "us", delta(upper, lower), min(len(upper), len(lower)),
		fmt.Sprintf("%s: median %.1f - median %.1f", base, median(upper), median(lower)))
}

// layerRatio adds num/den, with its base; 0 with n=0 when den is 0.
func layerRatio(rep *report, name, unit string, num, den float64, base string) {
	b := fmt.Sprintf("%s: %.0f / %.0f", base, num, den)
	if den == 0 {
		rep.add(name, unit, 0, 0, b)
		return
	}
	rep.add(name, unit, num/den, int(den), b)
}

// perLayer derives the per-layer table from the traced pass, its ladder,
// and the real daemons' counters.
func perLayer(rep *report, in *inputs, r *realResult, tr *tracedResult) {
	ix := newSpanIndex(tr.spans)
	lad := tr.lad
	predictRoot := func(s Span) bool { return s.Parent == 0 }
	rtt := ix.durUS("client.predict", predictRoot)
	var serveAll, serveHit, transport, handlerSelf, pvUS, blobUS []float64
	for _, s := range ix.spans {
		if s.Name != "client.predict" {
			continue
		}
		sv, ok := ix.child(s, "serve POST /v1/predict")
		if !ok {
			continue
		}
		serveAll = append(serveAll, us(sv.dur()))
		transport = append(transport, us(ix.self[s.ID]))
		handlerSelf = append(handlerSelf, us(ix.self[sv.ID]))
		if !ix.hasKids(sv) {
			serveHit = append(serveHit, us(sv.dur()))
		}
		var pv, fb float64
		for _, k := range ix.kids[sv.ID] {
			switch k.Name {
			case "source.production_version":
				pv += us(k.dur())
			case "source.fetch_blob":
				fb += us(k.dur())
			}
		}
		pvUS, blobUS = append(pvUS, pv), append(blobUS, fb)
	}
	gwHit := ix.durUS("ladder.gateway_predict", func(s Span) bool { return !ix.hasKids(s) })
	gwMiss := ix.durUS("ladder.gateway_predict", ix.hasKids)
	fc := ix.durUS("ladder.forecast", nil)

	rttMed := layerMedian(rep, "client.predict_rtt_us", rtt, "root span around client.Predict, traced half of the pass")
	layerDelta(rep, "serve.transport_us", rtt, serveAll, "client rtt - serve.Handler span")
	layerDelta(rep, "serve.handler_self_us", serveHit, gwHit, "serve.Handler span on hits - ladder Gateway.PredictCtx on hits")
	rep.add("serve.handler_allocs_per_op", "allocs", tr.handlerAllocs, tr.handlerAllocN, "runtime mallocs around Handler.ServeHTTP on resident models")
	layerDelta(rep, "serve.gateway_hit_us", gwHit, fc, "ladder Gateway.PredictCtx on hits - ladder Learner.Forecast")
	layerMedian(rep, "forecast.forecast_us", fc, "ladder Learner.Forecast on the served contexts")
	preds := float64(tr.predictions)
	layerRatio(rep, "serve.hit_ratio", "ratio", preds-float64(tr.loads), preds, "(predictions - model loads) / predictions")
	layerRatio(rep, "serve.evictions_per_op", "count", float64(tr.evictions), preds, "evictions / predictions")
	layerMedian(rep, "serve.load_us", gwMiss, "ladder Gateway.PredictCtx on misses")
	layerMedian(rep, "serve.source_production_version_us", ix.durUS("source.production_version", nil), "serve.Source child spans of misses")
	layerMedian(rep, "serve.source_fetch_blob_us", ix.durUS("source.fetch_blob", nil), "serve.Source child spans of misses")
	layerMedian(rep, "forecast.decode_us", ix.durUS("ladder.decode", nil), "ladder forecast.Decode of the promoted blobs")
	layerRatio(rep, "dal.cache_hit_ratio", "ratio", float64(tr.cacheHits), float64(tr.cacheHits+tr.cacheMisses), "blob cache hits / (hits + misses)")
	layerMedian(rep, "core.production_version_us", ix.durUS("ladder.core_production_version", nil), "ladder Registry.ProductionVersionCtx")

	upRTT := ix.durUS("client.upload", predictRoot)
	upSrv := ix.durUS("server POST /v1/instances", nil)
	coreUp := ix.durUS("ladder.core_upload", nil)
	layerMedian(rep, "client.upload_rtt_us", upRTT, "root span around client.UploadInstance")
	layerDelta(rep, "server.upload_handler_self_us", upSrv, coreUp, "server.Server span on uploads - ladder Registry.UploadInstanceCtx")
	coreMed := layerMedian(rep, "core.upload_us", coreUp, "ladder Registry.UploadInstanceCtx")
	n := float64(lad.uploads)
	putUS := 1e6 * lad.putSec / float64(max(1, lad.blobPuts))
	walUS := 1e6 * lad.walSec / float64(max(1, lad.walAppends))
	appends := float64(lad.walAppends) / n
	rep.add("core.upload_self_us", "us", coreMed-putUS-walUS*appends, lad.uploads,
		fmt.Sprintf("core.upload_us %.1f - blob put %.1f - wal append %.1f x %.2f", coreMed, putUS, walUS, appends))
	rep.add("blobstore.put_us", "us", putUS, int(lad.blobPuts), fmt.Sprintf("blobstore_op_seconds{op=put} mean over %d puts", lad.blobPuts))
	rep.add("wal.append_us", "us", walUS, int(lad.walAppends), fmt.Sprintf("relstore_wal_append_seconds mean over %d appends", lad.walAppends))
	layerRatio(rep, "wal.appends_per_upload", "count", float64(lad.walAppends), n, "WAL appends / uploads")
	layerRatio(rep, "wal.bytes_per_upload", "bytes", float64(lad.walBytes), n, "LogSize delta / uploads")
	layerRatio(rep, "relstore.mutations_per_upload", "count", float64(lad.mutations), n, "relstore_ops_total{insert,update,delete} delta / uploads")
	layerRatio(rep, "audit.rows_per_upload", "count", float64(lad.audited), n, "audit_events_total delta / uploads")
	layerRatio(rep, "relstore.allocs_per_upload", "allocs", float64(lad.mallocs), n, "mallocs around UploadInstanceCtx / uploads")
	rep.add("relstore.heap_bytes_per_instance", "bytes", lad.heapPerInstance, lad.heapInstances, "HeapAlloc after GC, after minus before the prefill, / prefill instances")
	layerMedian(rep, "core.search_us", ix.durUS("ladder.core_search", nil), "ladder Registry.SearchInstances with the run's filters")
	layerRatio(rep, "relstore.rows_scanned_per_result", "count", float64(lad.scanned), float64(lad.returned), "SelectExplain Scanned / rows the searches returned")
	layerRatio(rep, "relstore.sort_ratio", "ratio", float64(lad.sorted), float64(lad.orderedQueries), "ordered instance scans with Explain.Ordered=false / all")
	layerMedian(rep, "core.insert_metrics_us", ix.durUS("ladder.core_insert_metrics", nil), "ladder Registry.InsertMetrics")
	layerRatio(rep, "rules.dispatch_per_op", "count", float64(tr.dispatched+tr.dropped), float64(tr.metricInserts),
		fmt.Sprintf("(dispatched %d + dropped %d) / metric inserts", tr.dispatched, tr.dropped))

	ops := float64(r.ops.succeeded)
	layerRatio(rep, "galleryd.gc_per_kop", "count", 1000*r.gcRuns[0], ops, "galleryd runtime_gc_runs_total delta x 1000 / ops")
	layerRatio(rep, "galleryserve.gc_per_kop", "count", 1000*r.gcRuns[1], ops, "galleryserve runtime_gc_runs_total delta x 1000 / ops")
	rep.add("galleryd.cpu_share", "ratio", ratio(float64(r.cpu.gd), float64(r.cpu.total())), 1,
		fmt.Sprintf("galleryd CPU %dus / both daemons' %dus", r.cpu.gd, r.cpu.total()))
	idleRate := float64(r.idleCPU.total()) / r.idleWall.Seconds()
	busyRate := float64(r.cpu.total()) / r.ops.wall.Seconds()
	rep.add("background.cpu_share", "ratio", idleRate/busyRate, 1,
		fmt.Sprintf("idle %dus over %.2fs / timed %dus over %.2fs", r.idleCPU.total(), r.idleWall.Seconds(), r.cpu.total(), r.ops.wall.Seconds()))
	walMB := float64(r.walBytes) / (1 << 20)
	rep.add("wal.replay_ms_per_mb", "ms/MB", 1000*median(r.restartS)/walMB, len(r.restartS),
		fmt.Sprintf("median restart %.0fms / WAL %.2fMB", 1000*median(r.restartS), walMB))
	if late := newDist(r.ops.lateMS); len(late) > 0 {
		rep.add("gen.late_p50_ms", "ms", late.at(500), len(late), "send time - due time")
		rep.add("gen.late_p99_ms", "ms", late.at(990), len(late), "send time - due time")
	} else {
		rep.add("gen.late_p50_ms", "ms", 0, 0, "closed loop: nothing is due")
		rep.add("gen.late_p99_ms", "ms", 0, 0, "closed loop: nothing is due")
	}
	rep.add("gen.cpu_share", "ratio", r.ops.genCPU.Seconds()/r.ops.wall.Seconds(), 1, "generator CPU / timed wall, pacing included")

	main, off := "client.predict", tr.offUS["client.predict"]
	if in.w.rate == 0 {
		main, off = "client.upload", tr.offUS["client.upload"]
	}
	on := ix.durUS(main, predictRoot)
	if len(on) > 0 && len(off) > 0 {
		rep.add("trace.overhead_ratio", "ratio", median(on)/median(off), len(on),
			fmt.Sprintf("%s median with spans %.1fus / without %.1fus (n=%d)", main, median(on), median(off), len(off)))
	} else {
		rep.add("trace.overhead_ratio", "ratio", 0, 0, "no samples")
	}

	// The blocking path of a predict: the client's own share and the wire
	// (root self time), the handler's self time, and the galleryd calls a
	// miss makes. Medians do not add, so the residual is reported.
	if len(rtt) > 0 {
		parts := []struct {
			name string
			xs   []float64
		}{{"client+transport self", transport}, {"serve handler self", handlerSelf}, {"source.production_version", pvUS}, {"source.fetch_blob", blobUS}}
		var sum float64
		var desc []string
		for _, p := range parts {
			m := median(p.xs)
			sum += m
			desc = append(desc, fmt.Sprintf("%s %.1f", p.name, m))
		}
		rep.addf("blocking path (medians, us): %s; sum %.1f + residual %.1f = client median %.1f",
			strings.Join(desc, " + "), sum, rttMed-sum, rttMed)
		rep.add("trace.residual_us", "us", rttMed-sum, len(rtt), "client median - sum of the blocking path's median self times")
	} else {
		rep.add("trace.residual_us", "us", 0, 0, "no samples")
	}
}

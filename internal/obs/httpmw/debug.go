package httpmw

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"gallery/internal/api"
	"gallery/internal/obs"
	obslog "gallery/internal/obs/log"
	"gallery/internal/obs/profile"
	"gallery/internal/obs/trace"
)

// Debug is the read-only observability surface both daemons serve under
// /v1/debug/: the metric registry (JSON and Prometheus text), the
// completed-trace and structured-log rings, and the profile view. One
// implementation keeps the query contract identical on both daemons.
type Debug struct {
	Obs *obs.Registry
	// Each of the rest, when nil, leaves its routes unmounted.
	Tracer *trace.Tracer
	Logs   *obslog.Ring
	// Profile renders GET /v1/debug/profile: galleryd's fleet view or a
	// gateway's own ring.
	Profile func(merge time.Duration, topN int, now time.Time) profile.View
}

// Register mounts the debug routes through handle (a mux's HandleFunc, or
// a wrapper that also records the pattern).
func (d Debug) Register(handle func(pattern string, h func(http.ResponseWriter, *http.Request))) {
	handle("GET /v1/debug/metrics", d.metrics)
	handle("GET /v1/debug/metrics/prom", d.metricsProm)
	if d.Tracer != nil {
		handle("GET /v1/debug/traces", d.listTraces)
		handle("GET /v1/debug/traces/{id}", d.getTrace)
	}
	if d.Logs != nil {
		handle("GET /v1/debug/logs", d.logs)
	}
	if d.Profile != nil {
		handle("GET /v1/debug/profile", d.profile)
	}
}

func (d Debug) metrics(w http.ResponseWriter, r *http.Request) {
	writeDebugJSON(w, http.StatusOK, d.Obs.Snapshot())
}

func (d Debug) metricsProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", PromContentType)
	w.Header().Set("Cache-Control", "no-store")
	_ = d.Obs.WriteProm(w)
}

// listTraces serves the completed-trace summaries, newest first.
// ?limit=N bounds the list (default 50; 0 lists every retained trace).
func (d Debug) listTraces(w http.ResponseWriter, r *http.Request) {
	limit := 50
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeDebugErr(w, http.StatusBadRequest, fmt.Sprintf("bad limit %q", q))
			return
		}
		limit = n
	}
	store := d.Tracer.Store()
	writeDebugJSON(w, http.StatusOK, struct {
		Stats  trace.Stats     `json:"stats"`
		Traces []trace.Summary `json:"traces"`
	}{store.Stats(), store.Summaries(limit)})
}

// getTrace renders one trace as a span tree with per-span self-time.
func (d Debug) getTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	detail, ok := d.Tracer.Store().Get(id)
	if !ok {
		writeDebugErr(w, http.StatusNotFound, fmt.Sprintf("trace %s not in buffer", id))
		return
	}
	writeDebugJSON(w, http.StatusOK, detail)
}

// logs serves the structured-log ring. Filters: level (min level), since
// (RFC3339 or a relative duration like 5m), after (the next_seq cursor of
// a prior read, for follow mode), limit (newest N).
func (d Debug) logs(w http.ResponseWriter, r *http.Request) {
	qp := r.URL.Query()
	f := obslog.Filter{MinLevel: obslog.ParseLevel(qp.Get("level"))}
	if v := qp.Get("since"); v != "" {
		if dur, err := time.ParseDuration(v); err == nil {
			f.Since = time.Now().Add(-dur)
		} else if t, err := time.Parse(time.RFC3339, v); err == nil {
			f.Since = t
		} else {
			writeDebugErr(w, http.StatusBadRequest, fmt.Sprintf("bad since %q (want RFC3339 or a duration like 15m)", v))
			return
		}
	}
	if v := qp.Get("after"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeDebugErr(w, http.StatusBadRequest, fmt.Sprintf("bad after cursor %q", v))
			return
		}
		f.AfterSeq, f.HasAfterSeq = n, true
	}
	if v := qp.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeDebugErr(w, http.StatusBadRequest, fmt.Sprintf("bad limit %q", v))
			return
		}
		f.Limit = n
	}
	entries, next := d.Logs.Entries(f)
	writeDebugJSON(w, http.StatusOK, api.DebugLogsResponse{Entries: entries, NextSeq: next})
}

// profile serves per-process function summaries, each folded per kind
// across retained windows. ?merge=1h restricts the fold to recent
// windows; ?n=10 bounds functions per summary. It is reader-class like
// the other debug routes: summaries, not raw pprof data.
func (d Debug) profile(w http.ResponseWriter, r *http.Request) {
	merge, topN, err := profile.ParseViewQuery(r.URL.Query())
	if err != nil {
		writeDebugErr(w, http.StatusBadRequest, err.Error())
		return
	}
	writeDebugJSON(w, http.StatusOK, d.Profile(merge, topN, time.Now()))
}

// writeDebugJSON sends v with no-store: debug state is live state, and a
// cached snapshot is a wrong one.
func writeDebugJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Cache-Control", "no-store")
	WriteJSON(w, status, v)
}

func writeDebugErr(w http.ResponseWriter, status int, msg string) {
	writeDebugJSON(w, status, api.Error{Error: msg})
}

// WriteJSON sends v as a JSON response with an explicit Content-Type.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError sends err as the API's JSON error body.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, api.Error{Error: err.Error()})
}

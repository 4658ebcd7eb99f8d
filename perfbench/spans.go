package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call at a layer boundary. Spans of one request share
// Req; a root span has Parent 0.
type Span struct {
	Name   string        `json:"name"`
	Req    int64         `json:"req"`
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s Span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run writes them out.
type recorder struct {
	base  time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []Span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) now() time.Duration { return time.Since(r.base) }

func (r *recorder) newID() int64 { return r.ids.Add(1) }

// add records a finished span.
func (r *recorder) add(name string, req, id, parent int64, start, end time.Duration) {
	r.mu.Lock()
	r.spans = append(r.spans, Span{Name: name, Req: req, ID: id, Parent: parent, Start: start, End: end})
	r.mu.Unlock()
}

// all returns a copy of every span recorded so far.
func (r *recorder) all() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// writeJSONL writes the spans to path, one JSON object a line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children. Children may overlap each other or outlive
// their parent; only the covered part of the parent's own interval counts.
func selfTimes(spans []Span) map[int64]time.Duration {
	kids := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent Span, children []Span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	open := false
	for _, x := range iv {
		if open && x[0] <= curHi {
			curHi = max(curHi, x[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = x[0], x[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// spanRef names the span a call runs under, carried in a context (within
// a process) or in the spanHeader (across a loopback hop).
type spanRef struct{ req, id int64 }

type spanKey struct{}

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, ref)
}

func spanFrom(ctx context.Context) (spanRef, bool) {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	return ref, ok
}

const spanHeader = "X-Perfbench-Span"

func (ref spanRef) header() string { return fmt.Sprintf("%d/%d", ref.req, ref.id) }

func parseSpanHeader(h string) (spanRef, bool) {
	a, b, ok := strings.Cut(h, "/")
	if !ok {
		return spanRef{}, false
	}
	req, err1 := strconv.ParseInt(a, 10, 64)
	id, err2 := strconv.ParseInt(b, 10, 64)
	return spanRef{req, id}, err1 == nil && err2 == nil
}

// stampTransport adds the caller's current span to every request it sends.
// One belongs to each generator worker, whose calls are sequential, so cur
// needs no lock.
type stampTransport struct {
	base http.RoundTripper
	cur  spanRef
	on   bool
}

func (t *stampTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.on {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, t.cur.header())
	}
	return t.base.RoundTrip(req)
}

// spanHandler records a span around next for requests that carry the span
// header, and hands the span on to the handler's context.
type spanHandler struct {
	name string
	rec  *recorder
	next http.Handler
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, ok := parseSpanHeader(r.Header.Get(spanHeader))
	if !ok {
		h.next.ServeHTTP(w, r)
		return
	}
	id := h.rec.newID()
	start := h.rec.now()
	h.next.ServeHTTP(w, r.WithContext(withSpan(r.Context(), spanRef{parent.req, id})))
	h.rec.add(h.name+" "+r.Method+" "+routeOf(r.URL.Path), parent.req, id, parent.id, start, h.rec.now())
}

// routeOf reduces a request path to its route, dropping IDs.
func routeOf(path string) string {
	switch {
	case strings.HasPrefix(path, "/v1/predict/"):
		return "/v1/predict"
	case path == "/v1/instances":
		return path
	case strings.HasPrefix(path, "/v1/instances/") && strings.HasSuffix(path, "/metricset"):
		return "/v1/instances/metricset"
	case strings.HasPrefix(path, "/v1/instances/") && strings.HasSuffix(path, "/metrics"):
		return "/v1/instances/metrics"
	case strings.HasPrefix(path, "/v1/instances/") && strings.HasSuffix(path, "/blob"):
		return "/v1/instances/blob"
	case strings.HasPrefix(path, "/v1/instances/"):
		return "/v1/instances/id"
	case strings.HasPrefix(path, "/v1/models/") && strings.HasSuffix(path, "/production"):
		return "/v1/models/production"
	case strings.HasPrefix(path, "/v1/lineage/"):
		return "/v1/lineage"
	}
	return path
}

package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gallery/internal/api"
)

func sp(name string, id, parent int64, start, end time.Duration) Span {
	return Span{Name: name, Req: 1, ID: id, Parent: parent, Start: start, End: end}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		sp("root", 1, 0, 0, 100),
		sp("a", 2, 1, 10, 40),
		sp("b", 3, 1, 30, 60),  // overlaps a: together they cover 10..60
		sp("c", 4, 2, 35, 50),  // outlives its parent a by 10
		sp("d", 5, 1, 90, 120), // outlives root: only 90..100 counts
		sp("leaf", 6, 0, 0, 7), // another root, no children
		sp("e", 7, 3, 30, 60),  // covers all of b
		sp("f", 8, 3, 40, 45),  // inside e: covered once, not twice
	}
	got := selfTimes(spans)
	want := map[int64]time.Duration{1: 40, 2: 25, 3: 0, 4: 15, 5: 30, 6: 7, 7: 30, 8: 5}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self(%s) = %v, want %v", spans[id-1].Name, got[id], w)
		}
	}
}

func TestCoveredDisjointAndEmpty(t *testing.T) {
	p := sp("p", 1, 0, 0, 100)
	if got := covered(p, nil); got != 0 {
		t.Errorf("no children covered %v", got)
	}
	kids := []Span{sp("x", 2, 1, 70, 80), sp("y", 3, 1, 10, 20), sp("z", 4, 1, 200, 300)}
	if got := covered(p, kids); got != 20 {
		t.Errorf("covered = %v, want 20", got)
	}
}

func TestSpanHandlerLinksParent(t *testing.T) {
	rec := newRecorder()
	var seen spanRef
	h := &spanHandler{name: "serve", rec: rec, next: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen, _ = spanFrom(r.Context())
	})}

	untraced := httptest.NewRequest("POST", "/v1/predict/m1", nil)
	h.ServeHTTP(httptest.NewRecorder(), untraced)
	if n := len(rec.all()); n != 0 {
		t.Fatalf("an unstamped request recorded %d spans", n)
	}

	root := spanRef{req: 7, id: 70}
	r := httptest.NewRequest("POST", "/v1/predict/m1", nil)
	r.Header.Set(spanHeader, root.header())
	h.ServeHTTP(httptest.NewRecorder(), r)
	spans := rec.all()
	if len(spans) != 1 {
		t.Fatalf("recorded %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.Name != "serve POST /v1/predict" || s.Req != 7 || s.Parent != 70 || s.End < s.Start {
		t.Errorf("span = %+v", s)
	}
	if seen != (spanRef{req: 7, id: s.ID}) {
		t.Errorf("handler saw span %+v, want req 7 id %d", seen, s.ID)
	}
}

func TestCheckPredict(t *testing.T) {
	ok := api.PredictResponse{InstanceID: "i1", Value: 100}
	if err := checkPredict(ok, "i1", 100+1e-8); err != nil {
		t.Errorf("rejected a forecast within 1e-9 relative: %v", err)
	}
	if err := checkPredict(ok, "i1", 100.001); err == nil {
		t.Error("accepted a wrong forecast")
	}
	if err := checkPredict(ok, "i2", 100); err == nil {
		t.Error("accepted the wrong instance")
	}
	stale := ok
	stale.Stale = true
	if err := checkPredict(stale, "i1", 100); err == nil {
		t.Error("accepted a stale answer")
	}
}

// TestCheckSearchConcurrentWrites: a search must show every matching
// instance acknowledged before it was sent, may show one whose upload
// overlapped it, and must not show one sent after it returned.
func TestCheckSearchConcurrentWrites(t *testing.T) {
	in := &inputs{w: workload{models: 1, versions: 1}}
	l := newLedger(in)
	base := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	add := func(id string, send, ack time.Duration, mape float64) {
		u := &uploadInput{metrics: map[string]float64{}}
		l.addInstance(&instRec{id: id, project: "p", created: base.Add(send), send: send, ack: ack, upload: u})
		l.metrics[id] = []metricRec{{name: "mape", value: mape, send: send, ack: ack}}
	}
	add("old", 10, 20, 0.1)
	add("overlap", 40, 60, 0.1)
	add("late", 90, 95, 0.1)
	add("bad", 5, 6, 0.9)
	s := api.SearchRequest{Constraints: []api.SearchConstraint{
		{Field: "project", Operator: "equal", Value: "p"},
		{Field: "metricName", Operator: "equal", Value: "mape"},
		{Field: "metricValue", Operator: "smaller_than", Number: 0.5},
	}, Limit: 20}
	inst := func(id string) api.Instance { return api.Instance{ID: id, Created: l.insts[id].created} }
	const send, done = 50, 80
	for _, tc := range []struct {
		name  string
		found []api.Instance
		ok    bool
	}{
		{"definite only", []api.Instance{inst("old")}, true},
		{"with overlapping", []api.Instance{inst("overlap"), inst("old")}, true},
		{"missing acknowledged", nil, false},
		{"from the future", []api.Instance{inst("late"), inst("old")}, false},
		{"metric does not match", []api.Instance{inst("old"), inst("bad")}, false},
		{"oldest first", []api.Instance{inst("old"), inst("overlap")}, false},
	} {
		err := l.checkSearch(s, tc.found, send, done)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

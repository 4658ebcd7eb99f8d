package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

type shipBody struct {
	Process string `json:"process"`
	N       int    `json:"n"`
}

// TestShipper covers the one gateway→registry telemetry path: delivery
// with the bearer token, failure and queue-overflow accounting, and the
// route-labelled self-metrics.
func TestShipper(t *testing.T) {
	var (
		mu     sync.Mutex
		got    []shipBody
		auth   []string
		status = http.StatusAccepted
		gate   chan struct{} // non-nil: hold every POST until closed
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var b shipBody
		if err := json.NewDecoder(r.Body).Decode(&b); err != nil {
			t.Errorf("decode: %v", err)
		}
		if ct := r.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("Content-Type = %q", ct)
		}
		mu.Lock()
		got = append(got, b)
		auth = append(auth, r.Header.Get("Authorization"))
		code, g := status, gate
		mu.Unlock()
		if g != nil {
			<-g
		}
		w.WriteHeader(code)
	}))
	defer srv.Close()

	t.Run("delivers with token", func(t *testing.T) {
		s := NewShipper[shipBody](srv.URL+"/v1/debug/profile", "sekrit", nil)
		defer s.Close()
		s.Send(shipBody{Process: "galleryserve", N: 42})
		s.Flush()
		mu.Lock()
		defer mu.Unlock()
		if len(got) != 1 || got[0] != (shipBody{Process: "galleryserve", N: 42}) {
			t.Fatalf("received %+v", got)
		}
		if auth[0] != "Bearer sekrit" {
			t.Fatalf("auth header = %q", auth[0])
		}
		if s.Dropped() != 0 || s.Failed() != 0 {
			t.Fatalf("dropped=%d failed=%d", s.Dropped(), s.Failed())
		}
	})

	t.Run("non-2xx counts as failed", func(t *testing.T) {
		mu.Lock()
		got, auth, status = nil, nil, http.StatusForbidden
		mu.Unlock()
		s := NewShipper[shipBody](srv.URL, "", nil)
		defer s.Close()
		s.Send(shipBody{N: 1})
		s.Flush()
		if s.Failed() != 1 {
			t.Fatalf("failed = %d, want 1", s.Failed())
		}
		mu.Lock()
		defer mu.Unlock()
		if auth[0] != "" {
			t.Fatalf("tokenless shipper sent Authorization %q", auth[0])
		}
	})

	t.Run("full queue drops", func(t *testing.T) {
		release := make(chan struct{})
		mu.Lock()
		got, status, gate = nil, http.StatusAccepted, release
		mu.Unlock()
		s := NewShipper[shipBody](srv.URL, "", nil)
		// One body in flight plus a full queue: at least one of these
		// must be dropped, and none may block.
		const sent = shipQueueDepth + 2
		for i := 0; i < sent; i++ {
			s.Send(shipBody{N: i})
		}
		if s.Dropped() == 0 {
			t.Fatal("overflowing the queue dropped nothing")
		}
		close(release)
		s.Flush()
		s.Close()
		s.Send(shipBody{N: -1}) // after Close: silently discarded
		mu.Lock()
		delivered := len(got)
		gate = nil
		mu.Unlock()
		if uint64(delivered)+s.Dropped() != sent {
			t.Fatalf("delivered %d + dropped %d != sent %d", delivered, s.Dropped(), sent)
		}
		if s.Failed() != 0 {
			t.Fatalf("failed = %d", s.Failed())
		}
	})

	t.Run("self-metrics by route", func(t *testing.T) {
		mu.Lock()
		status = http.StatusUnauthorized
		mu.Unlock()
		s := NewShipper[shipBody](srv.URL+"/v1/debug/traces", "", nil)
		defer s.Close()
		s.Send(shipBody{})
		s.Flush()
		r := NewRegistry()
		s.Expose(r)
		var b strings.Builder
		if err := r.WriteProm(&b); err != nil {
			t.Fatal(err)
		}
		if err := ValidateExposition([]byte(b.String())); err != nil {
			t.Fatalf("exposition invalid: %v\n%s", err, b.String())
		}
		for _, want := range []string{
			`telemetry_ship_failed_total{route="/v1/debug/traces"} 1`,
			`telemetry_ship_dropped_total{route="/v1/debug/traces"} 0`,
		} {
			if !strings.Contains(b.String(), want) {
				t.Fatalf("exposition missing %q:\n%s", want, b.String())
			}
		}
	})
}

package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"
)

// shipQueueDepth bounds the shipments a Shipper holds before Send drops:
// deep enough to ride out one slow POST during a burst of kept traces,
// shallow enough that a dead peer costs bounded memory.
const shipQueueDepth = 64

// Shipper posts JSON bodies to one peer endpoint on a background
// goroutine — the single gateway→registry telemetry path that trace and
// profile export both ride. Send never blocks the caller: a full queue
// drops the body (counted). Flush waits for everything queued so far to
// be posted; tests and shutdown use it, the request path never does.
type Shipper[T any] struct {
	url      string
	token    string
	hc       *http.Client
	ch       chan T
	quit     chan struct{}
	once     sync.Once
	worker   sync.WaitGroup
	inflight sync.WaitGroup
	dropped  atomic.Uint64
	failed   atomic.Uint64
}

// NewShipper builds a shipper posting to url. token, when non-empty,
// rides as a bearer credential for peers running -auth. A nil client
// gets a 5-second-timeout default.
func NewShipper[T any](url, token string, hc *http.Client) *Shipper[T] {
	if hc == nil {
		hc = &http.Client{Timeout: 5 * time.Second}
	}
	s := &Shipper[T]{
		url:   url,
		token: token,
		hc:    hc,
		ch:    make(chan T, shipQueueDepth),
		quit:  make(chan struct{}),
	}
	s.worker.Add(1)
	go s.run()
	return s
}

// Send queues one body for shipment. Non-blocking; drops when the queue
// is full or the shipper is closed.
func (s *Shipper[T]) Send(body T) {
	select {
	case <-s.quit:
		return
	default:
	}
	s.inflight.Add(1)
	select {
	case s.ch <- body:
	default:
		s.inflight.Done()
		s.dropped.Add(1)
	}
}

// Flush blocks until every body queued before the call has been posted
// (successfully or not).
func (s *Shipper[T]) Flush() { s.inflight.Wait() }

// Dropped reports bodies discarded because the queue was full.
func (s *Shipper[T]) Dropped() uint64 { return s.dropped.Load() }

// Failed reports bodies whose POST errored (network or non-2xx).
func (s *Shipper[T]) Failed() uint64 { return s.failed.Load() }

// Close drains the queue and stops the worker. Safe to call twice.
func (s *Shipper[T]) Close() {
	s.once.Do(func() { close(s.quit) })
	s.worker.Wait()
}

// Expose publishes the dropped and failed counts in r as
// telemetry_ship_{dropped,failed}_total, labelled by the ingest route
// (the path of the shipper's URL).
func (s *Shipper[T]) Expose(r *Registry) {
	route := s.url
	if u, err := url.Parse(s.url); err == nil {
		route = u.Path
	}
	r.GaugeFunc(Name("telemetry_ship_dropped_total", "route", route), func() float64 { return float64(s.Dropped()) })
	r.GaugeFunc(Name("telemetry_ship_failed_total", "route", route), func() float64 { return float64(s.Failed()) })
}

func (s *Shipper[T]) run() {
	defer s.worker.Done()
	for {
		select {
		case body := <-s.ch:
			s.post(body)
			s.inflight.Done()
		case <-s.quit:
			for {
				select {
				case body := <-s.ch:
					s.post(body)
					s.inflight.Done()
				default:
					return
				}
			}
		}
	}
}

func (s *Shipper[T]) post(body T) {
	raw, err := json.Marshal(body)
	if err != nil {
		s.failed.Add(1)
		return
	}
	req, err := http.NewRequest(http.MethodPost, s.url, bytes.NewReader(raw))
	if err != nil {
		s.failed.Add(1)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if s.token != "" {
		req.Header.Set("Authorization", "Bearer "+s.token)
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		s.failed.Add(1)
		return
	}
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		s.failed.Add(1)
	}
}

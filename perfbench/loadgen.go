package main

import (
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gallery/internal/client"
)

// maxConns is the generator's connection budget to each daemon.
const maxConns = 2

// spinWindow is how early the pacer stops sleeping and starts polling the
// clock. On a 2-vCPU cloud VM an idle time.Sleep wakes ~0.6 ms late at
// the median, comparable to a whole predict request, so the pacer sleeps
// to 1 ms before each due time and spins the rest.
const spinWindow = time.Millisecond

// worker is one generator connection: a client whose requests all go out
// through one keep-alive connection, stamping the worker's current span
// when tracing.
type worker struct {
	cl    *client.Client
	stamp *stampTransport
	rec   *recorder            // nil when untraced
	calls map[string]int       // traced worker: calls made, by name
	offUS map[string][]float64 // traced worker: calls timed without spans
}

// call runs f, one client call. A traced worker records every other call
// of each name as a root span, stamping the requests f sends so that the
// servers attach their spans to it, and times the rest without spans, to
// price the tracing.
func (w *worker) call(name string, f func() error) error {
	if w.rec == nil {
		return f()
	}
	w.calls[name]++
	if w.calls[name]%2 == 1 {
		t0 := time.Now()
		err := f()
		w.offUS[name] = append(w.offUS[name], us(time.Since(t0)))
		return err
	}
	ref := spanRef{req: w.rec.newID(), id: w.rec.newID()}
	w.stamp.cur, w.stamp.on = ref, true
	t0 := w.rec.now()
	err := f()
	w.rec.add(name, ref.req, ref.id, 0, t0, w.rec.now())
	w.stamp.on = false
	return err
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// newWorkers returns maxConns workers sharing a transport limited to
// maxConns connections per host; with rec set they are traced.
func newWorkers(base string, rec *recorder) []*worker {
	tr := &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	ws := make([]*worker, maxConns)
	for i := range ws {
		st := &stampTransport{base: tr}
		ws[i] = &worker{
			cl:    client.NewWith(base, client.Options{HTTP: &http.Client{Transport: st, Timeout: 10 * time.Second}}),
			stamp: st,
			rec:   rec,
			calls: make(map[string]int),
			offUS: make(map[string][]float64),
		}
	}
	return ws
}

// phase is the generator's account of one timed phase.
type phase struct {
	attempted, succeeded, failed int
	latMS                        []float64 // per success: from due (open loop) or send (closed loop)
	svcMS                        []float64 // per success: from send
	lateMS                       []float64 // open loop: send time − due time
	wall                         time.Duration
	genCPU                       time.Duration
	maxQueue                     int // open loop: most requests waiting for a free connection
}

// backlog reports that the open-loop schedule slipped: requests queued in
// the generator behind busy connections.
func (p *phase) backlog() bool { return p.maxQueue >= 4 }

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// openLoop sends n requests at rate per second, each due at a fixed
// offset from the start whether or not earlier ones have returned, over
// the workers' connections. Latency counts from the due time, so a stall
// is charged to every request it delays.
func openLoop(ws []*worker, n int, rate float64, do func(w *worker, i int) error) *phase {
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job, n) // sized to every send, so dispatch never blocks
	var (
		mu     sync.Mutex
		p      = &phase{attempted: n}
		queued atomic.Int64
		wg     sync.WaitGroup
	)
	cpu0 := selfCPU()
	start := time.Now().Add(5 * time.Millisecond)
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for j := range jobs {
				queued.Add(-1)
				sent := time.Now()
				err := do(w, j.i)
				done := time.Now()
				mu.Lock()
				p.lateMS = append(p.lateMS, ms(sent.Sub(j.due)))
				if err != nil {
					p.failed++
				} else {
					p.succeeded++
					p.latMS = append(p.latMS, ms(done.Sub(j.due)))
					p.svcMS = append(p.svcMS, ms(done.Sub(sent)))
				}
				mu.Unlock()
			}
		}(w)
	}
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		pace(due)
		if q := int(queued.Add(1)) - 1; q > p.maxQueue {
			p.maxQueue = q
		}
		jobs <- job{i, due}
	}
	close(jobs)
	wg.Wait()
	p.wall = time.Since(start)
	p.genCPU = selfCPU() - cpu0
	return p
}

// pace returns at due: it sleeps until spinWindow before, then yields in
// a loop until the time has come.
func pace(due time.Time) {
	for {
		d := time.Until(due)
		if d <= 0 {
			return
		}
		if d > spinWindow {
			time.Sleep(d - spinWindow)
			continue
		}
		runtime.Gosched()
	}
}

// closedLoop runs each worker's own op list back to back: a worker sends
// its next op only when the previous one has returned.
func closedLoop(ws []*worker, lists [][]int, do func(w *worker, i int) error) *phase {
	var (
		mu sync.Mutex
		p  = &phase{}
		wg sync.WaitGroup
	)
	cpu0 := selfCPU()
	start := time.Now()
	for k, w := range ws {
		p.attempted += len(lists[k])
		wg.Add(1)
		go func(w *worker, ops []int) {
			defer wg.Done()
			for _, i := range ops {
				t0 := time.Now()
				err := do(w, i)
				d := time.Since(t0)
				mu.Lock()
				if err != nil {
					p.failed++
				} else {
					p.succeeded++
					p.latMS = append(p.latMS, ms(d))
					p.svcMS = append(p.svcMS, ms(d))
				}
				mu.Unlock()
			}
		}(w, lists[k])
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.genCPU = selfCPU() - cpu0
	return p
}

package main

import (
	"os"
	"runtime"
	"testing"
	"time"
)

func TestTailLevel(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 0},
		{19, 0},     // 9 samples above the median
		{20, 500},   // 10 above the median, 2 above p90
		{99, 500},   // p90 has 9 beyond
		{100, 900},  // p90 has 10 beyond
		{999, 950},  // p99 has 9 beyond
		{1000, 990}, // p99 has exactly 10 beyond
		{9999, 990},
		{10000, 999},
	} {
		if got := tailLevel(tc.n); got != tc.want {
			t.Errorf("tailLevel(%d) = %d, want %d", tc.n, got, tc.want)
		}
		if lvl := tailLevel(tc.n); lvl > 0 && beyond(tc.n, lvl) < minBeyond {
			t.Errorf("n=%d: chosen p%d has only %d beyond", tc.n, lvl, beyond(tc.n, lvl))
		}
	}
}

func TestDistNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	d := newDist(xs)
	for _, tc := range []struct {
		p    int
		want float64
	}{{500, 50}, {900, 90}, {990, 99}, {999, 100}, {1, 1}} {
		if got := d.at(tc.p); got != tc.want {
			t.Errorf("at(%d) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := d.median(); got != 50.5 {
		t.Errorf("median = %v, want 50.5", got)
	}
}

func TestLadderDelta(t *testing.T) {
	rtt := []float64{10, 12, 11}   // median 11
	handler := []float64{7, 6, 8}  // median 7
	gateway := []float64{2, 3, 4}  // median 3
	forecast := []float64{1, 1, 2} // median 1
	rungs := []float64{delta(rtt, handler), delta(handler, gateway), delta(gateway, forecast), median(forecast)}
	if rungs[0] != 4 || rungs[1] != 4 || rungs[2] != 2 || rungs[3] != 1 {
		t.Errorf("rungs = %v, want [4 4 2 1]", rungs)
	}
	var sum float64
	for _, r := range rungs {
		sum += r
	}
	if sum != median(rtt) {
		t.Errorf("rungs sum to %v, want the top median %v", sum, median(rtt))
	}
}

func TestParseStatCPU(t *testing.T) {
	// Fields 14 and 15 are utime=250 and stime=75 ticks; the command
	// name holds spaces and a ')'.
	line := "1234 (we (ird) name) S 1 1234 1234 0 -1 4194560 100 0 0 0 250 75 0 0 20 0 9 0 555 1000 200"
	got, err := parseStatCPU(line)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(325 * 1e6 / clockTicks); got != want {
		t.Errorf("cpu = %dus, want %dus", got, want)
	}
	for _, bad := range []string{"1234 no command S 1", "1234 (x) S 1 2 3", "1234 (x) S 1 1 1 0 -1 0 0 0 0 0 u 75"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) accepted a malformed line", bad)
		}
	}
}

func TestParseStatusRSS(t *testing.T) {
	got, err := parseStatusRSS("Name:\tgalleryd\nVmPeak:\t 9000 kB\nVmRSS:\t   20480 kB\nThreads:\t9\n")
	if err != nil {
		t.Fatal(err)
	}
	if got != 20480<<10 {
		t.Errorf("rss = %d, want %d", got, 20480<<10)
	}
	if _, err := parseStatusRSS("Name:\tx\n"); err == nil {
		t.Error("accepted a status without VmRSS")
	}
}

// TestProcCPU burns CPU in this process and checks that /proc accounting
// sees it, no faster than the wall clock allows.
func TestProcCPU(t *testing.T) {
	pid := os.Getpid()
	c0, err := procCPU(pid)
	if err != nil {
		t.Skipf("no /proc: %v", err)
	}
	start := time.Now()
	x := 0.0
	for {
		for i := 0; i < 1e6; i++ {
			x += float64(i)
		}
		c1, err := procCPU(pid)
		if err != nil {
			t.Fatal(err)
		}
		if c1-c0 >= 50_000 {
			wall := time.Since(start)
			limit := int64(wall/time.Microsecond)*int64(runtime.NumCPU()) + 2e6/clockTicks
			if c1-c0 > limit {
				t.Errorf("%dus of CPU in %v of wall on %d CPUs", c1-c0, wall, runtime.NumCPU())
			}
			break
		}
		if time.Since(start) > 10*time.Second {
			t.Fatalf("CPU time did not advance: %dus after %v (x=%v)", c1-c0, time.Since(start), x)
		}
	}
	rss, err := procRSS(pid)
	if err != nil || rss <= 0 {
		t.Errorf("procRSS = %d, %v", rss, err)
	}
}

package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// tailPermille lists the percentiles considered for a tail figure, highest
// first, in thousandths.
var tailPermille = []int{999, 990, 950, 900, 500}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: fewer, and the figure is set by a handful of outliers.
const minBeyond = 10

// beyond is the number of samples above the nearest-rank p-permille
// percentile of n samples.
func beyond(n, permille int) int {
	return n - rankOf(n, permille)
}

// rankOf is the 1-based nearest rank of the p-permille percentile.
func rankOf(n, permille int) int {
	r := (n*permille + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// tailLevel returns the highest percentile, in thousandths, with at least
// minBeyond samples beyond it; 0 when even the median has fewer.
func tailLevel(n int) int {
	for _, p := range tailPermille {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// dist is a sorted sample of one measured quantity.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

// at returns the nearest-rank p-permille percentile, or NaN when empty.
func (d dist) at(permille int) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	return d[rankOf(len(d), permille)-1]
}

func (d dist) median() float64 {
	n := len(d)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return d[n/2]
	default:
		return (d[n/2-1] + d[n/2]) / 2
	}
}

// median of an unsorted sample.
func median(xs []float64) float64 { return newDist(xs).median() }

// delta is one rung of the ladder: the difference of two medians.
func delta(upper, lower []float64) float64 { return median(upper) - median(lower) }

// ratio divides, reporting NaN instead of a division by zero.
func ratio(num, den float64) float64 {
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// Linux fixes it at 100 for every architecture's user-visible ABI.
const clockTicks = 100

// parseStatCPU returns utime+stime, in microseconds, from the contents of
// /proc/<pid>/stat. The command name may hold spaces and parentheses, so
// fields are counted from the last ')'.
func parseStatCPU(stat string) (int64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command", len(f))
	}
	ut, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	st, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return (ut + st) * (1e6 / clockTicks), nil
}

// parseStatusRSS returns VmRSS, in bytes, from /proc/<pid>/status.
func parseStatusRSS(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmRSS:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmRSS %q", line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status VmRSS: %w", err)
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("proc status: no VmRSS")
}

// procCPU reads a process's user+system CPU time in microseconds.
func procCPU(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// procRSS reads a process's resident set size in bytes.
func procRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusRSS(string(b))
}

package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// errTooFewSamples is returned by percentile when fewer than minBeyond
// samples lie beyond the requested quantile, so the value would be set by
// a handful of outliers.
var errTooFewSamples = errors.New("too few samples beyond the quantile")

// minBeyond is how many samples must lie above a tail percentile before
// it is reported.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of xs by linear
// interpolation between order statistics. For p > 50 it refuses when
// fewer than minBeyond samples lie above the percentile.
func percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("no samples")
	}
	if p > 50 {
		beyond := int(float64(len(xs)) * (100 - p) / 100)
		if beyond < minBeyond {
			return 0, fmt.Errorf("p%g over %d samples (%d beyond, need %d): %w",
				p, len(xs), beyond, minBeyond, errTooFewSamples)
		}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1], nil
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo]), nil
}

// median is percentile 50, which never refuses for a non-empty slice.
func median(xs []float64) float64 {
	m, _ := percentile(xs, 50)
	return m
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid buffer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set size (VmHWM) in MB.
func maxRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// sample is one reading of the process counters a timed window spans.
type sample struct {
	cpu    time.Duration
	allocs uint64
	bytes  uint64
}

func takeSample() sample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return sample{cpu: cpuTime(), allocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// heapCounters reads cumulative heap allocations (objects, bytes) without
// stopping the world, for per-call accounting in the traced run.
var heapSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
}

func heapCounters() (objects, bytes uint64) {
	metrics.Read(heapSamples)
	return heapSamples[0].Value.Uint64(), heapSamples[1].Value.Uint64()
}

// gcCPU reads the runtime's estimates of GC CPU time and total CPU time.
// The runtime refreshes them at each GC cycle, so they suit windows that
// span many cycles.
var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func gcCPU() (gc, total float64) {
	metrics.Read(cpuSamples)
	return cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
}

package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration.
//
// On a shared host the CPU's speed drifts by 20-30% over minutes, with
// little CPU steal: neighbours contend for the core's execution units,
// caches and memory bandwidth, so user CPU time drifts as well as wall
// time. A drift that spans a whole run cannot be removed by any estimator
// inside the run. So the timed pass also times a fixed calibration kernel
// at regular intervals between ops, and the time metrics are given in
// reference-host time: each is scaled by calRefMS ÷ the run's mean
// kernel time. The kernel is the benchmark's own code, with no call into
// the program, and its memory lies outside the Go heap, so it neither
// changes the program's garbage-collection pacing nor can a change to the
// program move it. Its CPU time is the calling thread's own, which leaves
// out the collector's other threads.
//
// The mean, not the median: samples come at regular intervals, so they
// meet bursts of contention (steal, a busy neighbour) in proportion to
// the bursts' length, as the program's summed op time does. Over 8
// storm runs in a noisy hour on a 2-vCPU Xeon, raw work_per_s spread
// 0.24 (quartile distance ÷ median); scaled by an earlier, cache-bound
// version of the kernel, it spread 0.03 with the mean and 0.06 with the
// median.

// calRefMS is the kernel's time on the reference host, in ms. Time
// metrics are in the time the reference host would have taken: a run on a
// host moment where the kernel takes 12 ms reports 1.2× its raw speed.
const calRefMS = 10.0

// calEvery is the interval between calibration samples; a sample is
// taken after the first op that ends at least this long after the last.
const calEvery = 250 * time.Millisecond

// Kernel sizes: a 128 KiB pointer-chasing ring (beyond the L1 data
// cache, inside L2), a 4096-entry binary heap and a 4096-slot hash table,
// stepped calIters times. Each sample first walks all of it untimed, so
// the timed part always starts from the same warm private caches: how
// much of the shared cache the last op evicted must not show in the
// kernel's time, or a program that touches more memory would look faster.
const (
	calRing  = 1 << 15
	calSlots = 4096
	calIters = 370000
)

// calibrator times the kernel and keeps every sample of a pass.
type calibrator struct {
	ring    []uint32 // these three live in one anonymous mapping
	heap    []uint64
	table   []uint64
	sink    uint64
	last    time.Time
	wall    []float64     // kernel wall time of each sample, ms
	cpu     []float64     // kernel thread CPU time of each sample, ms
	cpuUsed time.Duration // total kernel CPU time over the samples
}

func newCalibrator() (*calibrator, error) {
	mem, err := syscall.Mmap(-1, 0, 4*calRing+2*8*calSlots,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	c := &calibrator{
		ring:  unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), calRing),
		heap:  unsafe.Slice((*uint64)(unsafe.Pointer(&mem[4*calRing])), calSlots),
		table: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[4*calRing+8*calSlots])), calSlots),
		// Room for every sample of a run, so sampling never allocates
		// inside a timed pass.
		wall: make([]float64, 0, 1<<14),
		cpu:  make([]float64, 0, 1<<14),
	}
	// Sattolo's shuffle makes the ring one random cycle through every
	// slot, so each step is a dependent load the prefetcher cannot predict.
	for i := range c.ring {
		c.ring[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := len(c.ring) - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int((x >> 33) % uint64(i))
		c.ring[i], c.ring[j] = c.ring[j], c.ring[i]
	}
	c.kernel() // fault the pages in
	return c, nil
}

// kernel is the fixed calibration work: dependent loads, integer
// hashing, a heap sift-down and a table update per step. It allocates
// nothing.
func (c *calibrator) kernel() {
	var p uint32
	x := uint64(88172645463325252)
	for range calIters {
		for range 4 {
			p = c.ring[p]
		}
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.heap[0] = x
		for k := 0; ; {
			ch := 2*k + 1
			if ch >= len(c.heap) {
				break
			}
			if ch+1 < len(c.heap) && c.heap[ch+1] < c.heap[ch] {
				ch++
			}
			if c.heap[k] <= c.heap[ch] {
				break
			}
			c.heap[k], c.heap[ch] = c.heap[ch], c.heap[k]
			k = ch
		}
		c.table[(x*0x9e3779b97f4a7c15)>>52] += uint64(p)
	}
	c.sink += x + uint64(p)
}

// warm walks the kernel's memory so it sits in the private caches.
func (c *calibrator) warm() {
	var p uint32
	for range calRing {
		p = c.ring[p]
	}
	var s uint64
	for i := range c.heap {
		s += c.heap[i] + c.table[i]
	}
	c.sink += s + uint64(p)
}

// sample times the kernel once, in wall time and in its thread's CPU
// time.
func (c *calibrator) sample() {
	runtime.LockOSThread()
	c.warm()
	t, cpu := time.Now(), threadCPUTime()
	c.kernel()
	used := threadCPUTime() - cpu
	c.last = time.Now()
	runtime.UnlockOSThread()
	c.cpuUsed += used
	c.wall = append(c.wall, float64(c.last.Sub(t).Nanoseconds())/1e6)
	c.cpu = append(c.cpu, float64(used.Nanoseconds())/1e6)
}

// maybe samples if calEvery has passed since the last sample.
func (c *calibrator) maybe() {
	if time.Since(c.last) >= calEvery {
		c.sample()
	}
}

// reset drops the samples of an earlier pass and takes a first one.
func (c *calibrator) reset() {
	c.wall, c.cpu, c.cpuUsed = c.wall[:0], c.cpu[:0], 0
	c.sample()
}

// wallSlowdown is how much slower than the reference host the pass ran in
// wall time: the mean kernel wall time ÷ calRefMS. cpuSlowdown is the
// same in thread CPU time, which leaves out CPU steal.
func (c *calibrator) wallSlowdown() float64 { return mean(c.wall) / calRefMS }
func (c *calibrator) cpuSlowdown() float64  { return mean(c.cpu) / calRefMS }

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// threadCPUTime returns the calling thread's CPU time.
func threadCPUTime() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	// A valid clock and buffer cannot fail.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

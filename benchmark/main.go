// Command benchmark is the repository's benchmark. It runs one
// workload's fixed, seeded op sequence in process against the program's
// public packages, checks every op's simulated output, and prints the
// metrics named in BENCHMARK.json. See README.md in this directory.
//
//	benchmark --workload specialize|serve|storm --seed N --seconds S --trace 0|1
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"lupine/internal/kerneldb"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 5

// workloads in the order the traced run covers them.
var workloads = []string{"specialize", "serve", "storm"}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: specialize, serve or storm")
	seed := fs.Uint64("seed", 1, "seed of the op sequence")
	seconds := fs.Int("seconds", 10, "run length the op count is sized for")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	spansDir := fs.String("spans-dir", ".bench_build", "directory the traced run writes its spans to")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	// The traced run also replays every specialize probe layer by layer,
	// which costs more than the probe; it times half the sequence, so it
	// stays within about the untraced run's time.
	seqSeconds := *seconds
	if *trace == 1 {
		seqSeconds = max(1, *seconds/2)
	}
	ops, unitLen, err := sequence(*name, *seed, seqSeconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	var cal *calibrator
	if *trace == 0 {
		if cal, err = newCalibrator(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: calibration:", err)
			return 1
		}
	}
	start := time.Now()
	db, err := kerneldb.Load()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	load := time.Since(start)

	var res *result
	if *trace == 0 {
		res, err = untraced(*name, db, load, *seed, ops, unitLen, cal)
	} else {
		res, err = traced(*name, db, *seed, *seconds, ops, unitLen, *spansDir)
	}
	var guard *guardError
	if errors.As(err, &guard) {
		fmt.Fprintln(os.Stderr, "benchmark: DECOMPOSITION GUARD FAILED:", err)
		return 1
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// setUp times setupReps set-ups of w and returns each in seconds.
func setUp(w workload) ([]float64, error) {
	times := make([]float64, setupReps)
	for rep := range times {
		t := time.Now()
		if err := w.setup(rep); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times[rep] = time.Since(t).Seconds()
	}
	return times, nil
}

// passResult is what one closed-loop pass over an op sequence measured.
type passResult struct {
	work       float64
	opMS       []float64 // wall time of each op
	unitRates  []float64 // work per wall second of each unit
	unitP50s   []float64 // median op time of each unit
	failed     int
	cpu        time.Duration
	allocs, kb float64
}

// workPerS is the whole sequence's throughput: its work ÷ the summed
// wall time of its ops. It is paired with the calibration's mean
// slowdown, which weighs bursts of host contention by their length as
// this sum does.
func (p passResult) workPerS() float64 {
	var ms float64
	for _, t := range p.opMS {
		ms += t
	}
	return p.work / ms * 1e3
}

// opP50 is the median over units of each unit's median op time. Every
// unit holds the same mix, so this is the typical op's time, but it
// draws on every unit instead of the two ops that straddle the middle
// of the whole run, which for specialize are two apps of very different
// cost.
func (p passResult) opP50() float64 { return median(p.unitP50s) }

// pass runs ops in a closed loop: each op starts when the previous one
// returns. With a tracer, every op is followed (outside its timing) by
// its layer decomposition. With a calibrator, ops are interleaved with
// calibration samples, outside their timing; the samples' CPU time is
// left out of the pass's.
func pass(w workload, ops []Op, unitLen int, tr *tracer, cal *calibrator) (passResult, error) {
	var p passResult
	var unitWork, unitMS float64
	endUnit := func(i int) {
		p.unitRates = append(p.unitRates, unitWork/unitMS*1e3)
		p.unitP50s = append(p.unitP50s, median(p.opMS[i-unitLen:i]))
		unitWork, unitMS = 0, 0
	}
	if cal != nil {
		cal.reset()
	}
	before := takeSample()
	for i, op := range ops {
		if i > 0 && i%unitLen == 0 {
			endUnit(i)
		}
		if tr != nil {
			tr.op = i
		}
		t := time.Now()
		work, err := w.run(op, tr)
		ms := float64(time.Since(t).Nanoseconds()) / 1e6
		p.opMS = append(p.opMS, ms)
		unitMS += ms
		if cal != nil {
			cal.maybe()
		}
		if err != nil {
			p.failed++
			fmt.Fprintf(os.Stderr, "benchmark: op %d (%s): %v\n", i, op.Key, err)
			continue
		}
		p.work += work
		unitWork += work
		if tr != nil {
			if err := w.decompose(op, tr); err != nil {
				return p, err
			}
		}
	}
	if cal != nil {
		cal.sample()
	}
	after := takeSample()
	endUnit(len(ops))
	p.cpu = after.cpu - before.cpu
	if cal != nil {
		p.cpu -= cal.cpuUsed
	}
	p.allocs = float64(after.allocs - before.allocs)
	p.kb = float64(after.bytes-before.bytes) / 1024
	if p.work == 0 {
		return p, errors.New("no op succeeded")
	}
	return p, nil
}

// untraced is the end-to-end run: set-up, then the timed sequence. Its
// time metrics are in reference-host time (see calib.go); the raw values
// are printed beside them.
func untraced(name string, db *kerneldb.DB, load time.Duration, seed uint64, ops []Op, unitLen int, cal *calibrator) (*result, error) {
	start := time.Now()
	w, err := newWorkload(name, db, seed)
	if err != nil {
		return nil, err
	}
	once := load + time.Since(start)
	setups, err := setUp(w)
	if err != nil {
		return nil, err
	}
	runtime.GC() // start the timed sequence from set-up's live heap only
	p, err := pass(w, ops, unitLen, nil, cal)
	if err != nil {
		return nil, err
	}
	rss, err := maxRSSMB()
	if err != nil {
		return nil, fmt.Errorf("reading peak RSS: %w", err)
	}
	wallSlow, cpuSlow := cal.wallSlowdown(), cal.cpuSlowdown()
	setupS := once.Seconds() + median(setups)
	cpuMS := float64(p.cpu.Nanoseconds()) / 1e6 / p.work
	got := map[string]float64{
		"setup_s":           setupS / wallSlow,
		"work_per_s":        p.workPerS() * wallSlow,
		"op_ms_p50":         p.opP50() / wallSlow,
		"cpu_ms_per_work":   cpuMS / cpuSlow,
		"allocs_per_work":   p.allocs / p.work,
		"alloc_kb_per_work": p.kb / p.work,
		"max_rss_mb":        rss,
	}
	fmt.Printf("workload %s seed %d: %d ops in %d units, %.0f work, one-time set-up %.3f s (kerneldb load %.3f s), set-ups %.3f s\n",
		name, seed, len(ops), len(p.unitRates), p.work, once.Seconds(), load.Seconds(), setups)
	fmt.Printf("sim_digest %s %s\n", name, w.digest())
	fmt.Printf("unit work/s over %d units: min %.4g median %.4g max %.4g\n", len(p.unitRates),
		slices.Min(p.unitRates), median(p.unitRates), slices.Max(p.unitRates))
	fmt.Println(opTail(p.opMS))
	fmt.Printf("host slowdown over %d calibration samples: wall %.4f, cpu %.4f (min wall %.4f)\n",
		len(cal.wall), wallSlow, cpuSlow, slices.Min(cal.wall)/calRefMS)
	fmt.Printf("raw: setup_s %.6g  work_per_s %.6g  op_ms_p50 %.6g  cpu_ms_per_work %.6g\n", setupS, p.workPerS(), p.opP50(), cpuMS)
	m, err := collect(endToEnd, got)
	if err != nil {
		return nil, err
	}
	printMetrics(endToEnd, m)
	return &result{Correct: p.failed == 0, Attempted: len(ops), Failed: p.failed, Metrics: m}, nil
}

// traced is the per-layer run. It times the workload's sequence once
// untraced and once traced (for the tracing overhead), then runs a
// shortened traced sequence of every other workload, so one traced run
// reports every layer.
func traced(name string, db *kerneldb.DB, seed uint64, seconds int, ops []Op, unitLen int, spansDir string) (*result, error) {
	ws := map[string]workload{}
	for _, n := range workloads {
		w, err := newWorkload(n, db, seed)
		if err != nil {
			return nil, err
		}
		if _, err := setUp(w); err != nil {
			return nil, fmt.Errorf("%s: %w", n, err)
		}
		ws[n] = w
	}
	runtime.GC()
	gc0, total0 := gcCPU()
	plain, err := pass(ws[name], ops, unitLen, nil, nil)
	if err != nil {
		return nil, err
	}
	gc1, total1 := gcCPU()

	tr := newTracer()
	got := map[string]float64{"runtime.gc_cpu_share": (gc1 - gc0) / (total1 - total0)}
	attempted, failed := len(ops), plain.failed
	var profile bytes.Buffer
	for _, n := range workloads {
		seq, ulen := ops, unitLen
		if n != name {
			if seq, ulen, err = sequence(n, seed, max(1, seconds/4)); err != nil {
				return nil, err
			}
		}
		tr.workload = n
		if n == "storm" {
			if err := pprof.StartCPUProfile(&profile); err != nil {
				return nil, err
			}
		}
		p, err := pass(ws[n], seq, ulen, tr, nil)
		if n == "storm" {
			pprof.StopCPUProfile()
		}
		if err != nil {
			return nil, fmt.Errorf("traced %s: %w", n, err)
		}
		attempted += len(seq)
		failed += p.failed
		if n == name {
			got["trace.overhead_pct"] = (plain.workPerS()/p.workPerS() - 1) * 100
		}
		ws[n].layers(tr, got)
	}
	samples, err := parseProfile(profile.Bytes())
	if err != nil {
		return nil, fmt.Errorf("storm CPU profile: %w", err)
	}
	shares := cpuShares(samples)
	for _, pkg := range cpuSharePackages {
		got["cpu_share."+pkg] = shares[pkg]
	}
	if err := os.MkdirAll(spansDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(spansDir, fmt.Sprintf("spans-%s-seed%d.json", name, seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("traced %s seed %d: %d spans written to %s\n", name, seed, len(tr.spans), path)
	for _, n := range workloads {
		fmt.Printf("sim_digest %s %s\n", n, ws[n].digest())
	}
	m, err := collect(perLayer, got)
	if err != nil {
		return nil, err
	}
	printMetrics(perLayer, m)
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// opTail reports the highest op-time percentile with at least minBeyond
// ops beyond it.
func opTail(opMS []float64) string {
	for _, q := range []float64{99, 95, 90, 75} {
		if v, err := percentile(opMS, q); err == nil {
			return fmt.Sprintf("op_ms_p%g %.4f ms over %d ops", q, v, len(opMS))
		}
	}
	return fmt.Sprintf("no op-time tail: %d ops leave fewer than %d beyond p75", len(opMS), minBeyond)
}

func printMetrics(defs []metricDef, m map[string]value) {
	for _, d := range defs {
		fmt.Printf("  %-32s %14.4f %s\n", d.name, m[d.name].Value, d.unit)
	}
}

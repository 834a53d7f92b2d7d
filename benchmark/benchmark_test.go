package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"lupine/internal/apps"
)

func TestSequenceIsSeeded(t *testing.T) {
	for _, w := range workloads {
		a, _, err := sequence(w, 7, 10)
		if err != nil {
			t.Fatal(err)
		}
		b, _, _ := sequence(w, 7, 10)
		c, _, _ := sequence(w, 8, 10)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different sequences", w)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", w)
		}
		if len(a) != len(c) {
			t.Errorf("%s: op count depends on the seed (%d vs %d)", w, len(a), len(c))
		}
	}
}

func TestSequenceHoldsWholeUnits(t *testing.T) {
	ops, unitLen, err := sequence("specialize", 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	n := len(apps.Registry())
	if unitLen != n || len(ops)%n != 0 || len(ops) == 0 {
		t.Fatalf("%d ops is not whole cycles of %d apps", len(ops), n)
	}
	for c := 0; c < len(ops); c += n {
		seen := map[string]bool{}
		for _, op := range ops[c : c+n] {
			seen[op.Key] = true
		}
		if len(seen) != n {
			t.Errorf("cycle at op %d derives %d distinct apps, want %d", c, len(seen), n)
		}
	}

	// Every (storm, seed) pair repeats, so repeats can be checked, and
	// set-up records a reference result for each.
	if setupReps < stormSeedsPerRun {
		t.Errorf("%d set-ups cannot cover %d storm seeds", setupReps, stormSeedsPerRun)
	}
	counts := map[Op]int{}
	storm, _, _ := sequence("storm", 3, 10)
	for _, op := range storm {
		counts[op]++
	}
	if len(counts) != stormSeedsPerRun*len(storms) {
		t.Errorf("storm sequence has %d (storm, seed) pairs, want %d", len(counts), stormSeedsPerRun*len(storms))
	}
	for op, c := range counts {
		if c < 2 {
			t.Errorf("%v runs only once", op)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs, 90); !errors.Is(err, errTooFewSamples) {
		t.Errorf("p90 over 99 samples: err %v, want errTooFewSamples", err)
	}
	xs = append(xs, 99)
	if p, err := percentile(xs, 90); err != nil || math.Abs(p-89.1) > 1e-9 {
		t.Errorf("p90 over 100 samples = %v, %v; want 89.1", p, err)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// metricName is the name syntax BENCHMARK.json allows.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, declared []struct{ Name, Unit string }) {
		if len(defs) != len(declared) {
			t.Errorf("%s: benchmark emits %d metrics, BENCHMARK.json declares %d", kind, len(defs), len(declared))
		}
		for i, d := range defs {
			if !metricName.MatchString(d.name) {
				t.Errorf("%s: bad metric name %q", kind, d.name)
			}
			if i < len(declared) && (declared[i].Name != d.name || declared[i].Unit != d.unit) {
				t.Errorf("%s[%d]: emits %s (%s), BENCHMARK.json has %s (%s)",
					kind, i, d.name, d.unit, declared[i].Name, declared[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
}

func TestCollectNeedsExactlyTheDeclaredMetrics(t *testing.T) {
	defs := []metricDef{{"a", "s"}, {"b", "ms"}}
	if _, err := collect(defs, map[string]float64{"a": 1}); err == nil {
		t.Error("a missing metric was accepted")
	}
	if _, err := collect(defs, map[string]float64{"a": 1, "b": 2, "c": 3}); err == nil {
		t.Error("an undeclared metric was accepted")
	}
	m, err := collect(defs, map[string]float64{"a": 1, "b": 2})
	if err != nil || m["b"] != (value{2, "ms"}) {
		t.Errorf("collect = %v, %v", m, err)
	}
}

// protobuf encoding helpers for building a fixed profile.
func pbVarint(b []byte, num int, v uint64) []byte {
	b = binary.AppendUvarint(b, uint64(num)<<3|protoVarint)
	return binary.AppendUvarint(b, v)
}

func pbBytes(b []byte, num int, v []byte) []byte {
	b = binary.AppendUvarint(b, uint64(num)<<3|protoBytes)
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func pbPacked(b []byte, num int, vs ...uint64) []byte {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	return pbBytes(b, num, p)
}

// fixedProfile encodes a CPU profile whose stacks (leaf first) and
// counts are given, the way runtime/pprof lays it out. Location 1 holds
// two inlined frames, so it also checks that the innermost one is the
// leaf.
func fixedProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"",
		"container/heap.up",                         // 1
		"lupine/internal/fleet.(*Fleet).schedule",   // 2
		"lupine/internal/region.(*Region).tick",     // 3
		"runtime.scanobject",                        // 4
		"runtime.gcBgMarkWorker",                    // 5
		"runtime.memmove",                           // 6
		"runtime.mallocgc",                          // 7
		"runtime.gcAssistAlloc",                     // 8
		"lupine/internal/fabric.(*Conn).push.func1", // 9
		"slices.SortFunc[go.shape.*lupine/x.T]",     // 10
		"samples", "count", "cpu", "nanoseconds",    // 11-14
	}
	var p []byte
	vt := pbVarint(pbVarint(nil, 1, 11), 2, 12)
	p = pbBytes(p, 1, vt)
	for i := 1; i <= 10; i++ {
		p = pbBytes(p, profFunction, pbVarint(pbVarint(nil, functionID, uint64(i)), functionName, uint64(i)))
	}
	line := func(fn uint64) []byte { return pbVarint(nil, lineFunction, fn) }
	// location id -> function ids, innermost first
	locs := map[uint64][]uint64{1: {1, 2}, 2: {3}, 3: {4}, 4: {5}, 5: {6}, 6: {2}, 7: {7}, 8: {8}, 9: {9}, 10: {10}}
	for id := uint64(1); id <= 10; id++ {
		l := pbVarint(nil, locID, id)
		for _, fn := range locs[id] {
			l = pbBytes(l, locLine, line(fn))
		}
		p = pbBytes(p, profLocation, l)
	}
	sample := func(count uint64, locs ...uint64) {
		s := pbPacked(nil, sampleLocs, locs...)
		if len(locs) == 1 { // unpacked, as the runtime writes short lists
			s = pbVarint(nil, sampleLocs, locs[0])
		}
		s = pbPacked(s, sampleValues, count, count*10_000_000)
		p = pbBytes(p, profSample, s)
	}
	sample(3, 1)       // heap (inlined into fleet)
	sample(2, 2, 6)    // region
	sample(4, 3, 4)    // gc: scanobject under gcBgMarkWorker
	sample(1, 7, 8, 6) // gc: mallocgc under gcAssistAlloc
	sample(2, 5, 6)    // runtime: memmove under fleet
	sample(5, 9, 6)    // fabric closure
	sample(3, 10)      // slices, despite the generic shape naming another package
	for _, s := range strs {
		p = pbBytes(p, profStrings, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestCPUSharesOnFixedProfile(t *testing.T) {
	samples, err := parseProfile(fixedProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 7 || !slices.Equal(samples[0].stack, []string{"container/heap.up", "lupine/internal/fleet.(*Fleet).schedule"}) {
		t.Fatalf("decoded samples %+v", samples)
	}
	got := cpuShares(samples)
	want := map[string]float64{"heap": 3, "region": 2, "gc": 5, "runtime": 2, "fabric": 5, "slices": 3}
	for pkg, n := range want {
		want[pkg] = n / 20
	}
	if len(got) != len(want) {
		t.Errorf("shares %v, want %v", got, want)
	}
	for pkg, w := range want {
		if math.Abs(got[pkg]-w) > 1e-12 {
			t.Errorf("share of %s = %v, want %v", pkg, got[pkg], w)
		}
	}
}

func TestParseProfileReadsRuntimeProfiles(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0
	for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); {
		x++
	}
	pprof.StopCPUProfile()
	if _, err := parseProfile(buf.Bytes()); err != nil {
		t.Fatalf("parsing a runtime/pprof profile: %v (spun %d)", err, x)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}

func TestCalibrationKernel(t *testing.T) {
	c, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	// The ring is one cycle through every slot, so no step is cached by
	// a short loop.
	p, n := c.ring[0], 1
	for ; p != 0 && n <= calRing; n++ {
		p = c.ring[p]
	}
	if n != calRing {
		t.Errorf("ring cycle from slot 0 has length %d, want %d", n, calRing)
	}
	// Sampling must not allocate, or it would move allocs_per_work and
	// the program's GC pacing.
	c.reset()
	if a := testing.AllocsPerRun(5, c.sample); a != 0 {
		t.Errorf("a calibration sample allocates %v times", a)
	}
	if len(c.wall) != 7 || len(c.cpu) != 7 || c.cpuUsed <= 0 {
		t.Errorf("after 7 samples: %d wall, %d cpu samples, %v CPU", len(c.wall), len(c.cpu), c.cpuUsed)
	}
	c.wall = append(c.wall[:0], 9, 30, 12)
	c.cpu = append(c.cpu[:0], 20, 5, 14)
	if w, u := c.wallSlowdown(), c.cpuSlowdown(); w != 17/calRefMS || u != 13/calRefMS {
		t.Errorf("slowdowns %v, %v; want the means over calRefMS", w, u)
	}
}

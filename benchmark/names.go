package main

import (
	"fmt"
	"sort"
)

// metricDef names one reported metric and its unit. The lists below are
// the benchmark's whole vocabulary; BENCHMARK.json at the repository root
// must list the same names, which the tests check.
type metricDef struct{ name, unit string }

// endToEnd is what an untraced run (--trace 0) reports for every workload.
// The ref- units are reference-host time (see calib.go).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"work_per_s", "work/ref-s"},
	{"op_ms_p50", "ref-ms"},
	{"cpu_ms_per_work", "ref-ms"},
	{"allocs_per_work", "count"},
	{"alloc_kb_per_work", "KiB"},
	{"max_rss_mb", "MB"},
}

// cpuSharePackages are the layers the storm CPU profile is split into.
var cpuSharePackages = []string{"heap", "fleet", "fabric", "region", "faults", "snapshot", "hostmem", "simclock", "gc"}

// storms are the two storm entry points the storm workload alternates.
var storms = []string{"regionfail", "netsplit"}

// perLayer is what a traced run (--trace 1) reports, whatever workload it
// was asked for: the traced run covers every layer of every workload.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"kconfig.resolve_ms", "ms"},
		{"kconfig.resolve_allocs", "count"},
		{"kbuild.build_ms", "ms"},
		{"rootfs.tree_ms", "ms"},
		{"rootfs.tree_alloc_kb", "KiB"},
		{"ext2.write_ms", "ms"},
		{"ext2.write_alloc_kb", "KiB"},
		{"ext2.image_kb", "KiB"},
		{"ext2.read_ms", "ms"},
		{"ext2.read_alloc_kb", "KiB"},
		{"boot.simulate_ms", "ms"},
		{"core.build_ms", "ms"},
		{"core.build_coverage", "ratio"},
		{"core.probes_per_app", "count"},
		{"guest.probe_run_ms", "ms"},
		{"core.boot_ms", "ms"},
		{"guest.run_ms", "ms"},
		{"guest.ns_per_syscall", "ns"},
	}
	for _, s := range serveScenarios {
		defs = append(defs, metricDef{"guest.us_per_req." + s.name, "us"})
	}
	defs = append(defs,
		metricDef{"guest.syscalls_per_req", "count"},
		metricDef{"guest.ctxsw_per_req", "count"},
	)
	for _, s := range storms {
		defs = append(defs, metricDef{"storm.ns_per_event." + s, "ns"})
	}
	for _, s := range storms {
		defs = append(defs, metricDef{"storm.allocs_per_event." + s, "count"})
	}
	for _, p := range cpuSharePackages {
		defs = append(defs, metricDef{"cpu_share." + p, "ratio"})
	}
	return append(defs,
		metricDef{"runtime.gc_cpu_share", "ratio"},
		metricDef{"trace.overhead_pct", "%"},
	)
}()

// value is one metric as printed on the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect checks that got holds exactly the metrics of defs and attaches
// their units.
func collect(defs []metricDef, got map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := got[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = value{Value: v, Unit: d.unit}
	}
	if len(got) != len(defs) {
		var extra []string
		for name := range got {
			if _, ok := out[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics measured but not declared: %v", extra)
	}
	return out, nil
}

package experiments

// The storm harness: what the robustness storms share. Every storm
// restates the paper's §6.2 comparison — the libos unikernels die of
// the workload's first fork, Lupine keeps serving — and every storm
// wires its rows into the same telemetry and SLO planes. The pieces
// here are that shared part: the row wiring (stormRow), the fork-crash
// comparator (forkCrash and the supervised timelines built on it), the
// region-plane row the failover storms and breach run on, and the storm
// table lupine-bench samples for its BENCH records.

import (
	"fmt"

	"lupine/internal/faults"
	"lupine/internal/fleet"
	"lupine/internal/libos"
	"lupine/internal/region"
	"lupine/internal/simclock"
	"lupine/internal/slo"
	"lupine/internal/telemetry"
	"lupine/internal/vmm"
)

// stormRow wires one storm row into the telemetry planes. A row with no
// objectives feeds the harness plane; a row with objectives gets an SLO
// scope sampling every interval on sloTelemetry(), with inj attached so
// its burns attribute to the storm. Either way inj observes on the
// row's tracer under track. The caller binds the scope to the row's
// clock and finishes it at the run's end (both no-ops on a nil scope).
func stormRow(track string, inj *faults.Injector, every simclock.Duration, objs ...slo.Objective) (*telemetry.Tracer, *telemetry.Registry, *slo.Scope) {
	tr, reg := activeTrace, activeMetrics
	var scope *slo.Scope
	if len(objs) > 0 {
		tr, reg = sloTelemetry()
		scope = slo.NewScope(track, reg, tr, every)
		for _, o := range objs {
			scope.Add(o)
		}
		scope.SetInjector(inj)
	}
	inj.Observe(tr, track)
	return tr, reg, scope
}

// libosBoot is comparator s's measured redis boot, or 10 ms when its
// model has none.
func libosBoot(s *libos.System) simclock.Duration {
	if bt, err := s.BootTime("redis"); err == nil {
		return bt
	}
	return 10 * simclock.Millisecond
}

// forkCrash is comparator s's every boot under the storms' redis
// workload: it boots, serves for up, and panics on the first fork
// (§6.2) — the kernel, not the storm, is what cannot run the workload.
func forkCrash(s *libos.System, up simclock.Duration) vmm.Attempt {
	boot := libosBoot(s)
	return vmm.Attempt{
		Outcome:    vmm.OutcomePanic,
		Ready:      true,
		ReadyAfter: boot,
		Ran:        boot + up,
		Detail:     s.Fork().Error(),
	}
}

// crashTimeline supervises one VM that meets crash on its only attempt
// (no restart story on the libos monitors), traced under lane.
func crashTimeline(lane string, crash vmm.Attempt) fleet.Timeline {
	sup := vmm.NewSupervisor(vmm.RestartPolicy{})
	sup.Observe(activeTrace, lane)
	return fleet.FromReport(sup.Run(func(int) vmm.Attempt { return crash }))
}

// crashBackends is a pool of n crashTimeline backends vm0..vm(n-1),
// traced under track/vmI.
func crashBackends(track string, n int, crash vmm.Attempt) []*fleet.Backend {
	var out []*fleet.Backend
	for i := 0; i < n; i++ {
		out = append(out, fleet.NewBackend(fmt.Sprintf("vm%d", i), crashTimeline(fmt.Sprintf("%s/vm%d", track, i), crash)))
	}
	return out
}

// runRegionRow drives one configured region plane through plan and
// returns the result, the tracer the row fed and its SLO scope (nil
// without objectives).
func runRegionRow(track string, plan faults.Plan, cfg region.Config, every simclock.Duration, objs ...slo.Objective) (region.Result, *telemetry.Tracer, *slo.Scope, error) {
	inj, err := faults.New(plan)
	if err != nil {
		return region.Result{}, nil, nil, err
	}
	tr, reg, scope := stormRow(track, inj, every, objs...)
	p := region.New(cfg, inj)
	p.Observe(tr, reg, track)
	scope.Bind(p.Clock())
	res := p.Run()
	scope.Finish(res.End)
	return res, tr, scope, nil
}

// regionRow is one failover-storm table row plus what the tests assert
// on (regionfail and catalog).
type regionRow struct {
	System string
	Warm   bool // snapshot warm pool (replicated lineages) available
	Res    region.Result

	scope *slo.Scope // SLO scope, set on the scoped row only
}

// runFailoverRow drives one configured plane through experiment id's
// regional storm. The scoped row carries the experiment's SLO scope:
// availability summed across the regional cells at three nines with a
// 2 ms scale — the plane's badness is a thin burst right after the
// blackout, so the slow rule's window must be wide enough to catch it
// and reach back to the fault.
func runFailoverRow(id string, plan faults.Plan, name string, warm, scoped bool, cfg region.Config) (regionRow, error) {
	track := id + "/" + name
	var objs []slo.Objective
	if scoped {
		objs = append(objs, sloRegionAvailability(track, cfg, 0.999, slo.DefaultRules(2*simclock.Millisecond, 10, 4)))
	}
	res, _, scope, err := runRegionRow(track, plan, cfg, sloEvery, objs...)
	return regionRow{System: name, Warm: warm, Res: res, scope: scope}, err
}

// shedSummary renders per-region shed counts in region order, e.g.
// "0/12/3".
func shedSummary(res region.Result) string {
	out := ""
	for i, rs := range res.PerRegion {
		if i > 0 {
			out += "/"
		}
		out += fmt.Sprintf("%d", rs.Shed)
	}
	return out
}

// Storm is one hero storm lupine-bench can sample into a BENCH record
// (-run <ID> -bench-out=FILE).
type Storm struct {
	ID string
	// Headline is the BENCH record key of the storm's headline metric.
	Headline string
	// Bench runs the storm once: total virtual events across all rows,
	// the headline row's availability, and the headline metric.
	Bench func() (events int, availability, headline float64, err error)
}

// Storms lists the sampled storms; a new one costs one entry here.
func Storms() []Storm {
	return []Storm{
		{"netsplit", "p99_us", NetSplitBench},
		{"regionfail", "detect_p99_us", RegionFailBench},
		{"catalog", "hit_rate", CatalogBench},
		{"breach", "containment", BreachBench},
	}
}

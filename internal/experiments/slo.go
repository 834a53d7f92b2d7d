package experiments

// The experiment side of the SLO plane (internal/slo). Every storm
// scopes its hero row: a Scope samples the row's telemetry counters on
// the storm's own virtual clock, evaluates multi-window burn-rate rules
// against declared objectives, and attributes each alert to the fault
// storm and plane events that caused it. The resulting reports are kept
// here per experiment id so lupine-bench's -slo-out can export them and
// the tests can assert causality (a netsplit availability burn must
// name fabric/partition, a memstorm burn hostmem/reclaim-stall, a
// breach containment alert must precede the first repave).
//
// Scoped rows feed the harness telemetry plane when lupine-bench
// installed one — the same streams back -trace-out and -metrics-out —
// and private tracer/registry instances otherwise, so the SLO plane is
// always on and always deterministic, telemetry flags or not.

import (
	"sort"
	"sync"

	"lupine/internal/region"
	"lupine/internal/simclock"
	"lupine/internal/slo"
	"lupine/internal/telemetry"
	"lupine/internal/vmm"
)

// sloEvery is the default SLI sample interval: fine enough that a
// millisecond-scale storm window spans several samples, coarse enough
// that sampling stays a rounding error next to the event engine.
const sloEvery = 250 * simclock.Microsecond

// sloTelemetry returns the tracer/registry pair a scoped row must feed:
// the harness plane when one is installed, else fresh private instances.
func sloTelemetry() (*telemetry.Tracer, *telemetry.Registry) {
	tr, reg := activeTrace, activeMetrics
	if tr == nil {
		tr = telemetry.New()
	}
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return tr, reg
}

// sloFleetObjectives is the standard fleet-row objective pair:
// availability (served requests are good, sheds and failures burn the
// budget) at target under rules, and latency (the fraction of served
// requests completing within 2 ms) at 90%.
func sloFleetObjectives(track string, target float64, rules []slo.BurnRule) []slo.Objective {
	return []slo.Objective{
		{
			Name:   "availability",
			Good:   []string{track + ".served"},
			Bad:    []string{track + ".shed", track + ".failed"},
			Target: target,
			Rules:  rules,
		},
		{
			Name:      "latency",
			Hist:      track + ".latency",
			Threshold: 2 * simclock.Millisecond,
			Target:    0.9,
			Rules:     slo.DefaultRules(simclock.Millisecond, 5, 2),
		},
	}
}

// sloRegionAvailability sums the availability SLI across a region
// plane's per-region cells (the cells observe at track+"/"+name).
func sloRegionAvailability(track string, cfg region.Config, target float64, rules []slo.BurnRule) slo.Objective {
	o := slo.Objective{Name: "availability", Target: target, Rules: rules}
	for _, r := range cfg.Regions {
		lane := track + "/" + r.Name
		o.Good = append(o.Good, lane+".served")
		o.Bad = append(o.Bad, lane+".shed", lane+".failed")
	}
	return o
}

// sloReplaySupervisor replays a supervised run's serving timeline into
// up/down nanosecond counters sampled on a uniform grid. The chaos
// experiment has no fleet clock to bind a scope to — the supervisor
// report IS its timeline — so the SLO plane watches it by replay:
// identical inputs produce an identical grid and identical burns.
func sloReplaySupervisor(scope *slo.Scope, reg *telemetry.Registry, track string, rep vmm.SupervisorReport) {
	up := reg.Counter(track + ".up-ns")
	down := reg.Counter(track + ".down-ns")
	type span struct{ from, to simclock.Time }
	var serving []span
	for _, rec := range rep.Attempts {
		if !rec.Ready {
			continue
		}
		from, to := rec.Start.Add(rec.ReadyAfter), rec.Start.Add(rec.Ran)
		if to > from {
			serving = append(serving, span{from, to})
		}
	}
	upWithin := func(a, b simclock.Time) simclock.Duration {
		var total simclock.Duration
		for _, s := range serving {
			lo, hi := s.from, s.to
			if lo < a {
				lo = a
			}
			if hi > b {
				hi = b
			}
			if hi > lo {
				total += hi.Sub(lo)
			}
		}
		return total
	}
	end := rep.End
	for t := simclock.Time(sloEvery); ; t = t.Add(sloEvery) {
		prev := t.Add(-sloEvery)
		hi := t
		if hi > end {
			hi = end
		}
		if hi > prev {
			u := upWithin(prev, hi)
			up.Add(int64(u))
			down.Add(int64(hi.Sub(prev) - u))
		}
		scope.Sample(t)
		if t >= end {
			break
		}
	}
}

// The per-experiment report store: each storm's run replaces its
// report, so the store always reflects the latest same-process run.
var (
	sloMu      sync.Mutex
	sloReports = map[string]*slo.Report{}
)

// sloRecord lands the scoped rows' reports under the experiment id.
// Nil scopes (unscoped rows, skipped variants) are dropped.
func sloRecord(id string, scopes ...*slo.Scope) {
	rep := &slo.Report{Experiment: id, Seed: chaosSeed, Scopes: []slo.ScopeReport{}}
	for _, s := range scopes {
		if s != nil {
			rep.Scopes = append(rep.Scopes, s.Report())
		}
	}
	sloMu.Lock()
	sloReports[id] = rep
	sloMu.Unlock()
}

// SLOReport returns the report recorded by experiment id's most recent
// run in this process, or nil if it has not run.
func SLOReport(id string) *slo.Report {
	sloMu.Lock()
	defer sloMu.Unlock()
	return sloReports[id]
}

// SLOReports returns every recorded report sorted by experiment id —
// the deterministic order lupine-bench's -slo-out exports.
func SLOReports() []*slo.Report {
	sloMu.Lock()
	defer sloMu.Unlock()
	out := make([]*slo.Report, 0, len(sloReports))
	for _, r := range sloReports {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Experiment < out[j].Experiment })
	return out
}

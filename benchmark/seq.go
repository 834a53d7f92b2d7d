package main

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"lupine/internal/apps"
)

// Op is one closed-loop operation of a run's fixed sequence.
type Op struct {
	Key  string // app (specialize), variant/scenario (serve), storm name (storm)
	Seed uint64 // storm seed; zero elsewhere
}

// Work-size calibration: how much of each workload one second of
// --seconds buys on a 2-vCPU Xeon. The op count is a function of
// (seed, seconds) only, never of elapsed time, so every run of a
// workload does the same work.
const (
	specializeCyclesPerSec = 0.2 // one cycle derives all 20 apps, ~5 s
	serveUnitsPerSec       = 3.3 // one unit is one session of every serve pair, ~0.3 s
	stormUnitsPerSec       = 1.2 // one unit is stormPattern under one seed, ~0.8 s
)

// serveVariants are the Table 4 Lupine rows whose images serve builds in
// set-up; serveScenarios are Table 4's four client sessions.
var serveVariants = []string{"lupine", "lupine-nokml"}

type scenario struct {
	name        string
	app         string
	op          string // redis op
	conns, reqs int    // ab connections and requests per connection
	requests    int    // redis-benchmark requests
}

var serveScenarios = []scenario{
	{name: "redis-get", app: "redis", op: "get", requests: 9000},
	{name: "redis-set", app: "redis", op: "set", requests: 9000},
	{name: "nginx-conn", app: "nginx", conns: 900, reqs: 1},
	{name: "nginx-sess", app: "nginx", conns: 90, reqs: 100},
}

func (s scenario) work() int {
	if s.app == "redis" {
		return s.requests
	}
	return s.conns * s.reqs
}

// stormPattern is one storm unit: regionfail takes two thirds of the ops
// so the median op sits inside its mode rather than on the boundary
// between the two storms' costs.
var stormPattern = []string{"regionfail", "regionfail", "netsplit"}

// stormSeedsPerRun is how many distinct chaos seeds a run draws; every
// (storm, seed) pair then repeats, so repeats can be checked against
// each other.
const stormSeedsPerRun = 3

func newRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x6c7570696e65^stream))
}

// unitCount scales a per-second rate by the run length, with at least one unit.
func unitCount(perSec float64, seconds int) int {
	n := int(perSec*float64(seconds) + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// stormSeeds derives the run's chaos seeds from its --seed.
func stormSeeds(seed uint64) []uint64 {
	r := newRNG(seed, 3)
	out := make([]uint64, stormSeedsPerRun)
	for i := range out {
		out[i] = r.Uint64() % 1_000_000
	}
	return out
}

// sequence generates the fixed op sequence of one run: n whole units of
// the workload's mix, each in its own seeded order, so every unit does
// the same work and can be timed on its own. It returns the ops and the
// unit length.
func sequence(workload string, seed uint64, seconds int) ([]Op, int, error) {
	var units [][]Op
	switch workload {
	case "specialize":
		var cycle []Op
		for _, a := range apps.Registry() {
			cycle = append(cycle, Op{Key: a.Name})
		}
		for range unitCount(specializeCyclesPerSec, seconds) {
			units = append(units, slices.Clone(cycle))
		}
	case "serve":
		var mix []Op
		for _, v := range serveVariants {
			for _, s := range serveScenarios {
				mix = append(mix, Op{Key: v + "/" + s.name})
			}
		}
		for range unitCount(serveUnitsPerSec, seconds) {
			units = append(units, slices.Clone(mix))
		}
	case "storm":
		// Units rotate through the run's chaos seeds, so every
		// (storm, seed) pair repeats once the run is long enough.
		seeds := stormSeeds(seed)
		n := unitCount(stormUnitsPerSec, seconds)
		n += (len(seeds) - n%len(seeds)) % len(seeds) // every seed equally often
		for i := range n {
			var u []Op
			for _, name := range stormPattern {
				u = append(u, Op{Key: name, Seed: seeds[i%len(seeds)]})
			}
			units = append(units, u)
		}
	default:
		return nil, 0, fmt.Errorf("unknown workload %q (want specialize, serve or storm)", workload)
	}
	r := newRNG(seed, 1)
	var ops []Op
	for _, u := range units {
		r.Shuffle(len(u), func(i, j int) { u[i], u[j] = u[j], u[i] })
		ops = append(ops, u...)
	}
	return ops, len(units[0]), nil
}

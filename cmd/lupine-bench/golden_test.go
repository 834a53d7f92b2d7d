package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"lupine/internal/experiments"
	"lupine/internal/telemetry"
)

// Golden storm outputs. Each hash is the SHA-256 of what
// `lupine-bench -run <id> -trace-out=...` writes at the default seed, and
// of the memstorm `-slo-out` report and its `-metrics-out` OpenMetrics
// sibling. Two same-seed runs agreeing (the check.sh gates) cannot catch
// a refactor that reorders events in both; these pins can. A change that
// means to move a storm's output updates the hash and explains why.
var goldenTraces = []struct{ id, sha string }{
	{"netsplit", "f61831b15ce5d87bb4adfe25ff12f57fa6b34e711544f31dc0df0f11fd95d4b2"},
	{"regionfail", "441720d23ea69d31ce12f576398129278ff3a529f0da3d4231aa589489ba311e"},
	{"breach", "d34ab9c8c45abb04ae2571c1a075ec83979156d957b08735abf735e03ff45861"},
	{"catalog", "a23578905000468b9436c2355ce7591bcb66d3c12dbbdbfed3f1a026863f912c"},
	{"memstorm", "e8f0d22c24b141c521f8810fc611605fc5178760aa7cf17267c0709e5a5f52f7"},
}

const (
	goldenMemstormSLO         = "747f3da086f107fad6019daac5ea5ba1704a519e0c5872b15fdaf2854bc446a5"
	goldenMemstormOpenMetrics = "892b3c11af01764cb084c9f85f055fbc00311688b4024912cd8d216d70a5689c"
)

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// runWith runs one experiment at the default seed under the given
// telemetry plane, the way main does for -run.
func runWith(t *testing.T, id string, tr *telemetry.Tracer, reg *telemetry.Registry) {
	t.Helper()
	experiments.SetChaosSeed(42)
	experiments.SetTelemetry(tr, reg)
	defer experiments.SetTelemetry(nil, nil)
	e, err := experiments.Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
}

func TestGoldenStormOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five traced storms")
	}
	// The SLO report first: -slo-out exports every report in the
	// process, and the CLI run it mirrors ran memstorm alone.
	reg := telemetry.NewRegistry()
	runWith(t, "memstorm", nil, reg)
	path := filepath.Join(t.TempDir(), "slo.json")
	if err := writeSLOReports(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha(b); got != goldenMemstormSLO {
		t.Errorf("memstorm SLO report sha256 = %s, want %s", got, goldenMemstormSLO)
	}
	if got := sha(reg.OpenMetrics()); got != goldenMemstormOpenMetrics {
		t.Errorf("memstorm OpenMetrics sha256 = %s, want %s", got, goldenMemstormOpenMetrics)
	}

	for _, g := range goldenTraces {
		tr := telemetry.New()
		tr.SetFlight(telemetry.NewRecorder(0))
		runWith(t, g.id, tr, nil)
		if got := sha(tr.ChromeTrace()); got != g.sha {
			t.Errorf("%s trace sha256 = %s, want %s", g.id, got, g.sha)
		}
	}
}

// TestStormEngineCounters pins the hero storms' event counts exactly and
// bounds their heap allocations per event: the counts move only if the
// simulation changes, and the allocation bound catches a per-event
// object creeping back into the engine or the fabric.
func TestStormEngineCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full storms")
	}
	cases := []struct {
		name      string
		bench     func() (int, float64, float64, error)
		events    int
		maxAllocs float64
	}{
		{"regionfail", experiments.RegionFailBench, 371502, 2.0},
		{"netsplit", experiments.NetSplitBench, 108650, 2.3},
	}
	experiments.SetChaosSeed(42)
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		events, _, _, err := c.bench()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if events != c.events {
			t.Errorf("%s: %d events, want %d", c.name, events, c.events)
		}
		perEvent := float64(after.Mallocs-before.Mallocs) / float64(events)
		t.Logf("%s: %d events, %.3f allocs/event", c.name, events, perEvent)
		if perEvent > c.maxAllocs {
			t.Errorf("%s: %.3f allocs/event, want <= %.1f", c.name, perEvent, c.maxAllocs)
		}
	}
}

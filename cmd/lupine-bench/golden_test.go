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

// TestStormEngineCounters pins every table storm's event count exactly
// and bounds its heap allocations per event: the counts move only if
// the simulation changes, and the allocation bound catches a per-event
// object creeping back into the engine or the fabric. Each storm runs
// once unmeasured first, so the bound sees the storm's own allocations
// and not the one-time fill of the process-wide build caches, whatever
// ran before in the process.
func TestStormEngineCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every table storm")
	}
	want := map[string]struct {
		events    int
		maxAllocs float64
	}{
		"netsplit":   {108650, 2.3},
		"regionfail": {371502, 2.0},
		"catalog":    {378857, 2.5},
		"breach":     {377799, 2.0},
	}
	experiments.SetChaosSeed(42)
	for _, s := range experiments.Storms() {
		w, ok := want[s.ID]
		if !ok {
			t.Errorf("%s: no pinned counters", s.ID)
			continue
		}
		if _, _, _, err := s.Bench(); err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		events, _, _, err := s.Bench()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		if events != w.events {
			t.Errorf("%s: %d events, want %d", s.ID, events, w.events)
		}
		perEvent := float64(after.Mallocs-before.Mallocs) / float64(events)
		t.Logf("%s: %d events, %.3f allocs/event", s.ID, events, perEvent)
		if perEvent > w.maxAllocs {
			t.Errorf("%s: %.3f allocs/event, want <= %.1f", s.ID, perEvent, w.maxAllocs)
		}
	}
}

// goldenExperiments pins the SHA-256 of every experiment's rendered
// output at the default seed, in the order a full `lupine-bench` run
// prints them. With wall time on stderr, a full run's stdout is exactly
// these renderings under their headers, so a refactor that moves any
// number in any table or figure fails here.
var goldenExperiments = []struct{ id, sha string }{
	{"abl-kpti", "bf0e0d72f546ed2882ff6ff3c4eb796a7f2e7aa0d0b4553f0230269def9ebdcf"},
	{"abl-paravirt", "f0fa970de955722ef9babc57f6b29ab460b239af888086632b930dcf45b8992d"},
	{"abl-tiny", "2d5d2a0ef0f91054a89b091ac258d16f7a5e136de87662d87a8229f455b890b3"},
	{"breach", "a58216362de8a0a8b5bb2c07c8036daeae302dcd7dc0127b4062c15ae3303c7a"},
	{"catalog", "40400b21f65ead4587b23ad3de462749bd07d785b83a837cfeb1b60de54e6f34"},
	{"chaos", "8ea061207177838f1afcd25edff8561d209cbc410de14796ba6c59241dbf45c4"},
	{"fig10", "9e386689172e19b304c28d9f9f85887883b2811e0674fe421e4475942a179838"},
	{"fig11", "9107d351f9b2648f709df9c73049ade7556e657cbb7a77f9bce300fcb647809b"},
	{"fig12", "d4bcd9f16ba8878c8b2d0605f127f1d8bf8e34df2f98c2b512dbdff51ac3a7a7"},
	{"fig3", "dd27ae3eeff3ac490dfb0295555f8c6e5bd5c8b9f72d9e95d79041150a460282"},
	{"fig4", "14ab39568c509cead75bed0638277f4aad055d43d2aefa38eefadcc03e82fb16"},
	{"fig5", "9f6272bff077813bd49f27bd5b457a8fabc6f9237e324634426779b4fdd44f3f"},
	{"fig6", "efd00f613340fff52d135b44c8b6c128f0e60d0b7b0dd4dd43edb62cf39e60ef"},
	{"fig7", "676dfe89a12a32d3da5f592971202b8865e5baf36cca37fdb7a1a148d54a4051"},
	{"fig7-detail", "1c7268e295bbbeeecacb1995c532c418cc0249465f95a43cf9e451b1dfa18970"},
	{"fig8", "7ab43287d71df025cbddb25c3054ca3aa3e4beb71fa75317ee05f0ebe4b94a7c"},
	{"fig9", "5dc1b78c7a5901a020950c80ead381d118224216baf4dcb8f2061d3b2252835b"},
	{"fleet", "817a83ebd7c81e0be2a5db61a6d2cd63bf2f76d2841fa28dcab5f717f7c9a871"},
	{"fleetchaos", "fb9eea6517febba79b780354176773d17dc5718b8e7d2793c9752c59a073c894"},
	{"memstorm", "1bcaea7a537b0dc3d8aef595c01f77d87cdeec265c6141a17de31bc0184b3885"},
	{"netsplit", "22bae24cd842c2c81f8850363367372ee89aa852ef8f73b8291eadddc8b2d450"},
	{"regionfail", "27c0d992611d215782fbc728c6f045b2f2c18a5953d08b0c7be0afe28af2cd40"},
	{"sec-surface", "1ddf7bff1ecfe3da0d694efb09894f4c9faf001dca52ddf854525a0d693c8c64"},
	{"sec5fork", "7bf9eb65ab52638c659b9c661da7a95766cbbec9b5f5c04d8e80549d6e8b486e"},
	{"sec5smp", "5dbdfebcf9824406603bd3cfea2e321a76261060b5fb39d619e23994b73f064f"},
	{"surge", "052e62fc29502c42b125548fb1072c30d8ba36797363807a36af051f73910c3d"},
	{"tab1", "ef15b8dc268a452eae208eb4f6c2bd6d454919f846294e6685f3028544de3815"},
	{"tab3", "f265047e11bc94e8a74ab7f93be308bde321647b4932c8cdceafbee91d4e5ca2"},
	{"tab4", "a2a90211814481a0e1191c78aaafbb6a530b3d2f19aec5becdd60bafc5c89797"},
	{"tab5", "ab6f3360c14032a5c3417cab4b062874f90a71f888284b1184a8dd7f44c9750b"},
}

func TestGoldenExperimentOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	experiments.SetChaosSeed(42)
	experiments.SetTelemetry(nil, nil)
	all := experiments.All()
	got := map[string]string{}
	for _, e := range all {
		out, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		got[e.ID] = sha([]byte(out.String()))
	}
	if len(goldenExperiments) != len(all) {
		t.Errorf("%d experiments pinned, %d registered", len(goldenExperiments), len(all))
	}
	for _, g := range goldenExperiments {
		if got[g.id] != g.sha {
			t.Errorf("%s output sha256 = %s, want %s", g.id, got[g.id], g.sha)
		}
	}
}

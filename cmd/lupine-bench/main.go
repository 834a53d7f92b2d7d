// Command lupine-bench runs the paper-reproduction experiments and prints
// the corresponding tables and figure series.
//
// Usage:
//
//	lupine-bench -list
//	lupine-bench -list-apps
//	lupine-bench -list-faults
//	lupine-bench [-run id[,id...]]   (default: all)
//	lupine-bench -json [-run id[,id...]]
//	lupine-bench -run memstorm -trace-out=trace.json -metrics-out=metrics.json
//	lupine-bench -csv=out/ [-run id[,id...]]
//	lupine-bench -run netsplit -bench-out=BENCH_netsplit.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"time"

	"lupine/internal/apps"
	"lupine/internal/experiments"
	"lupine/internal/faults"
	"lupine/internal/metrics"
	"lupine/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, writes results to stdout and
// diagnostics to stderr, and returns the exit status. Each experiment's
// wall time goes to stderr, so a full run's stdout is deterministic.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lupine-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list available experiments")
	listApps := fs.Bool("list-apps", false, "list the application catalog the pipeline can build")
	listFaults := fs.Bool("list-faults", false, "list registered fault-injection sites")
	runIDs := fs.String("run", "", "comma-separated experiment ids (default all)")
	csvDir := fs.String("csv", "", "write each table as <dir>/<id>.csv (for plotting)")
	jsonOut := fs.Bool("json", false, "emit results as a JSON array (machine-readable)")
	seed := fs.Uint64("seed", 42, "fault-storm seed for the chaos experiment")
	traceOut := fs.String("trace-out", "", "write a Chrome trace-event JSON of the runs (load in Perfetto or chrome://tracing)")
	metricsOut := fs.String("metrics-out", "", "write the telemetry metrics registry as JSON (plus an OpenMetrics sibling at <path>.prom)")
	sloOut := fs.String("slo-out", "", "write the per-experiment SLO reports (objectives, burns, alerts, incidents) as JSON")
	flight := fs.Bool("flight", false, "print flight-recorder crash dumps after the runs")
	benchOut := fs.String("bench-out", "", "run the one storm -run names and append a wall-clock bench record to this JSON file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	experiments.SetChaosSeed(*seed)

	// The telemetry plane is off (nil) unless an output asks for it, so
	// plain runs keep the zero-cost disabled path.
	var tracer *telemetry.Tracer
	var registry *telemetry.Registry
	if *traceOut != "" || *flight {
		tracer = telemetry.New()
		tracer.SetFlight(telemetry.NewRecorder(0))
	}
	if *metricsOut != "" {
		registry = telemetry.NewRegistry()
	}
	experiments.SetTelemetry(tracer, registry)

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", e.ID, e.Title)
		}
		return 0
	}

	if *listApps {
		// The same registry the bunny pipeline and the catalog experiment
		// build from: Table 2's top-20 images, ordered by pulls.
		fmt.Fprintf(stdout, "%-12s %10s %6s %8s\n", "app", "downloads", "port", "options")
		for _, a := range apps.Registry() {
			port := "-"
			if a.Port != 0 {
				port = fmt.Sprintf("%d", a.Port)
			}
			fmt.Fprintf(stdout, "%-12s %9.1fB %6s %8d\n", a.Name, a.DownloadsBillions, port, len(a.Options))
		}
		return 0
	}

	if *listFaults {
		// Importing the experiments package pulls in every subsystem, so
		// the registry holds all sites a plan can arm. Sites print grouped
		// by subsystem; scripts/check.sh counts the indented site lines
		// against RegisterSite calls, so every site stays discoverable.
		subsystem := ""
		for _, s := range faults.Sites() {
			if s.Subsystem != subsystem {
				if subsystem != "" {
					fmt.Fprintln(stdout)
				}
				subsystem = s.Subsystem
				fmt.Fprintf(stdout, "%s:\n", subsystem)
			}
			fmt.Fprintf(stdout, "  %-26s %s\n", s.Name, s.Doc)
		}
		return 0
	}

	// Stray commas ("chaos,", ",,surge") are noise, not ids.
	var ids []string
	for _, id := range strings.Split(*runIDs, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}

	if *benchOut != "" {
		storm, err := benchStorm(ids)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if err := writeBenchRecord(*benchOut, storm, *seed); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}

	var selected []experiments.Experiment
	if *runIDs == "" {
		selected = experiments.All()
	} else {
		// An all-noise selector is an error, with the same valid-id
		// listing Lookup gives for a typo.
		for _, id := range ids {
			e, err := experiments.Lookup(id)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			selected = append(selected, e)
		}
		if len(selected) == 0 {
			var all []string
			for _, e := range experiments.All() {
				all = append(all, e.ID)
			}
			fmt.Fprintf(stderr, "-run selects no experiments (try: %v)\n", all)
			return 2
		}
	}

	failed := 0
	var records []jsonRecord
	for _, e := range selected {
		start := time.Now()
		out, err := e.Run()
		if err != nil {
			fmt.Fprintf(stderr, "%s: FAILED: %v\n", e.ID, err)
			failed++
			continue
		}
		if *jsonOut {
			records = append(records, newJSONRecord(e, out))
			continue
		}
		if *csvDir != "" {
			if err := writeCSV(*csvDir, e.ID, out); err != nil {
				fmt.Fprintf(stderr, "%s: writing CSV: %v\n", e.ID, err)
				failed++
			}
			continue
		}
		fmt.Fprintf(stdout, "# %s — %s\n\n%s\n", e.ID, e.Title, out)
		fmt.Fprintf(stderr, "# %s (wall %.1fs)\n", e.ID, time.Since(start).Seconds())
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(records); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if *traceOut != "" {
		b := tracer.ChromeTrace()
		if !json.Valid(b) {
			fmt.Fprintln(stderr, "trace-out: export is not valid JSON")
			return 1
		}
		if err := os.WriteFile(*traceOut, b, 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if *metricsOut != "" {
		if err := os.WriteFile(*metricsOut, registry.JSON(), 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		// The OpenMetrics sibling: the same registry in text exposition
		// format, for anything that scrapes rather than parses JSON.
		if err := os.WriteFile(*metricsOut+".prom", registry.OpenMetrics(), 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if *sloOut != "" {
		if err := writeSLOReports(*sloOut); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if *flight {
		for _, d := range tracer.Flight().Dumps() {
			fmt.Fprint(stdout, d)
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// benchStorm resolves -bench-out's selection: ids must name exactly one
// storm of experiments.Storms().
func benchStorm(ids []string) (experiments.Storm, error) {
	var all []string
	for _, s := range experiments.Storms() {
		if len(ids) == 1 && s.ID == ids[0] {
			return s, nil
		}
		all = append(all, s.ID)
	}
	return experiments.Storm{}, fmt.Errorf("-bench-out samples one storm: -run must name exactly one of %v", all)
}

// benchRecord is one wall-clock trajectory sample scripts/bench.sh
// lands in BENCH_<storm>.json: how fast the event engine chews through
// the storm on this machine, plus the headline results so a perf
// regression that changes behavior is visible in the same file. The
// file holds a JSON array and every run appends, so the trajectory
// accumulates instead of each run clobbering the last.
type benchRecord struct {
	Experiment      string  `json:"experiment"`
	When            string  `json:"when"`
	Seed            uint64  `json:"seed"`
	Events          int     `json:"events"`
	WallSeconds     float64 `json:"wall_seconds"`
	EventsPerSec    float64 `json:"events_per_sec"`
	Availability    float64 `json:"availability"`            // headline lupine+mp row
	P99Micros       float64 `json:"p99_us,omitempty"`        // netsplit: served p99 virtual latency
	DetectP99Micros float64 `json:"detect_p99_us,omitempty"` // regionfail: failover detection p99
	HitRate         float64 `json:"hit_rate,omitempty"`      // catalog: redeploy artifact-cache hit rate
	Containment     float64 `json:"containment,omitempty"`   // breach: hardened-row contained/compromised

	// Engine self-observability (ROADMAP item 2's baseline): how much
	// the event engine allocates per virtual event, sampled around the
	// storm with runtime.ReadMemStats.
	AllocsPerEvent float64 `json:"allocs_per_event,omitempty"`
	BytesPerEvent  float64 `json:"bytes_per_event,omitempty"`
}

// readBenchRecords loads the existing trajectory. A missing file is an
// empty trajectory; a legacy single-object file becomes its first entry.
func readBenchRecords(path string) ([]benchRecord, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var recs []benchRecord
	if err := json.Unmarshal(b, &recs); err == nil {
		return recs, nil
	}
	var one benchRecord
	if err := json.Unmarshal(b, &one); err != nil {
		return nil, fmt.Errorf("bench-out: %s holds neither a record array nor a legacy record: %w", path, err)
	}
	return []benchRecord{one}, nil
}

func writeBenchRecord(path string, storm experiments.Storm, seed uint64) error {
	recs, err := readBenchRecords(path)
	if err != nil {
		return err
	}
	rec := benchRecord{
		Experiment: storm.ID,
		When:       time.Now().UTC().Format(time.RFC3339),
		Seed:       seed,
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var headline float64
	rec.Events, rec.Availability, headline, err = storm.Bench()
	if err != nil {
		return fmt.Errorf("bench-out: %w", err)
	}
	rec.WallSeconds = time.Since(start).Seconds()
	rec.EventsPerSec = float64(rec.Events) / rec.WallSeconds
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if rec.Events > 0 {
		rec.AllocsPerEvent = float64(after.Mallocs-before.Mallocs) / float64(rec.Events)
		rec.BytesPerEvent = float64(after.TotalAlloc-before.TotalAlloc) / float64(rec.Events)
	}
	if err := rec.setHeadline(storm.Headline, headline); err != nil {
		return err
	}
	recs = append(recs, rec)
	b, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// setHeadline stores v in the record field whose JSON key is key — the
// storm table names its headline by the key BENCH files already carry.
func (r *benchRecord) setHeadline(key string, v float64) error {
	rv := reflect.ValueOf(r).Elem()
	for i := 0; i < rv.NumField(); i++ {
		if name, _, _ := strings.Cut(rv.Type().Field(i).Tag.Get("json"), ","); name == key {
			rv.Field(i).SetFloat(v)
			return nil
		}
	}
	return fmt.Errorf("bench-out: no record field for headline %q", key)
}

// writeSLOReports lands every run experiment's SLO report — sorted by
// experiment id, indented, newline-terminated — so two same-seed runs
// write byte-identical files (check.sh gates on cmp).
func writeSLOReports(path string) error {
	reps := experiments.SLOReports()
	if len(reps) == 0 {
		return fmt.Errorf("slo-out: no experiments ran, nothing to report")
	}
	b, err := json.MarshalIndent(reps, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeCSV lands one experiment's table (or figure) as <dir>/<id>.csv.
func writeCSV(dir, id string, out fmt.Stringer) error {
	var csv string
	switch v := out.(type) {
	case *metrics.Table:
		csv = v.CSV()
	case *metrics.Figure:
		csv = v.CSV()
	default:
		return fmt.Errorf("result has no tabular form")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, id+".csv"), []byte(csv), 0o644)
}

// jsonRecord is one experiment's machine-readable result: tables and
// figures marshal structurally, anything else degrades to its rendering.
type jsonRecord struct {
	ID     string          `json:"id"`
	Title  string          `json:"title"`
	Table  *metrics.Table  `json:"table,omitempty"`
	Figure *metrics.Figure `json:"figure,omitempty"`
	Text   string          `json:"text,omitempty"`
}

func newJSONRecord(e experiments.Experiment, out fmt.Stringer) jsonRecord {
	rec := jsonRecord{ID: e.ID, Title: e.Title}
	switch v := out.(type) {
	case *metrics.Table:
		rec.Table = v
	case *metrics.Figure:
		rec.Figure = v
	default:
		rec.Text = out.String()
	}
	return rec
}

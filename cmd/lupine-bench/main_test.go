package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lupine/internal/experiments"
)

// -bench-out samples exactly one storm of the table: anything else exits
// 2 with the storm list and writes no file.
func TestBenchOutNeedsExactlyOneStorm(t *testing.T) {
	for _, tc := range []struct{ name, run string }{
		{"no -run", ""},
		{"not a storm", "tab1"},
		{"two storms", "netsplit,breach"},
		{"only commas", ",,"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bench.json")
			args := []string{"-bench-out=" + path}
			if tc.run != "" {
				args = append(args, "-run", tc.run)
			}
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2 (stderr %q)", code, stderr.String())
			}
			for _, s := range experiments.Storms() {
				if !strings.Contains(stderr.String(), s.ID) {
					t.Errorf("stderr %q does not list storm %s", stderr.String(), s.ID)
				}
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("bench file written (stat err %v)", err)
			}
		})
	}
}

// Every storm's headline key names a benchRecord field, so its value
// lands under the key the BENCH trajectories already carry.
func TestStormHeadlinesHaveRecordFields(t *testing.T) {
	for _, s := range experiments.Storms() {
		var rec benchRecord
		if err := rec.setHeadline(s.Headline, 0.5); err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(b), `"`+s.Headline+`":0.5`) {
			t.Errorf("%s: record %s lacks %q", s.ID, b, s.Headline)
		}
	}
	var rec benchRecord
	if err := rec.setHeadline("no_such_key", 1); err == nil {
		t.Error("unknown headline key accepted")
	}
}

// The committed trajectories parse, name table storms, and re-marshal
// byte-for-byte: appending a record rewrites the file with the same keys.
func TestCommittedBenchFilesRoundTrip(t *testing.T) {
	for _, s := range experiments.Storms() {
		path := filepath.Join("..", "..", "BENCH_"+s.ID+".json")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := readBenchRecords(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, r := range recs {
			if r.Experiment != s.ID {
				t.Errorf("%s: record for %q", path, r.Experiment)
			}
		}
		got, err := json.MarshalIndent(recs, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if string(append(got, '\n')) != string(want) {
			t.Errorf("%s does not round-trip through benchRecord", path)
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// TestMain runs from the repository root, where the workers run and
// the calibration artifact lives.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// tinyJobs is each workload's trace length in the self-test.
var tinyJobs = map[string]int{
	"cold-mempool-mix":    8,
	"cold-terapool-fleet": 8,
	"fastpath-replay":     200,
}

func prepTiny(t *testing.T, w workload, seed uint64) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "run")
	if err := prepare(dir, w, seed, tinyJobs[w.name]); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	return dir
}

func serveChecked(t *testing.T, dir string, workers int) repResult {
	t.Helper()
	r, err := serveOnce(dir, workers)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	if r.Violations != 0 || r.Failed != 0 {
		t.Fatalf("workers %d: %d violations, %d failed: %v", workers, r.Violations, r.Failed, r.Messages)
	}
	return r
}

// TestDeterministicAcrossWorkersAndRuns: every workload serves to the
// same bytes and simulated metrics at Workers 1 and 2 and across runs,
// and a traced serve reproduces the untraced stream.
func TestDeterministicAcrossWorkersAndRuns(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := prepTiny(t, w, 7)
			ref := serveChecked(t, dir, 1)
			for _, workers := range []int{1, 2, 2} {
				r := serveChecked(t, dir, workers)
				if r.Digest != ref.Digest {
					t.Errorf("workers %d: digest %s, want %s", workers, r.Digest, ref.Digest)
				}
				if r.SimLatencyP50 != ref.SimLatencyP50 || r.SimLatencyP90 != ref.SimLatencyP90 || r.SimServedGbps != ref.SimServedGbps {
					t.Errorf("workers %d: sim metrics %d/%d/%g, want %d/%d/%g", workers,
						r.SimLatencyP50, r.SimLatencyP90, r.SimServedGbps, ref.SimLatencyP50, ref.SimLatencyP90, ref.SimServedGbps)
				}
			}
			tr, err := tracedOnce(dir, 2, filepath.Join(dir, outFile))
			if err != nil {
				t.Fatalf("traced: %v", err)
			}
			if tr.Violations != 0 {
				t.Errorf("traced serve differs from the untraced one: %v", tr.Messages)
			}
		})
	}
}

// TestSeedChangesTraceNotMetricNames: another seed serves another
// trace under the same metric names.
func TestSeedChangesTraceNotMetricNames(t *testing.T) {
	w, err := lookupWorkload("cold-mempool-mix")
	if err != nil {
		t.Fatal(err)
	}
	dirs := []string{prepTiny(t, w, 1), prepTiny(t, w, 2)}
	var traces [][]byte
	var names [][]string
	for _, dir := range dirs {
		raw, err := os.ReadFile(filepath.Join(dir, traceFile))
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, raw)
		r := serveChecked(t, dir, 2)
		tr, err := tracedOnce(dir, 2, filepath.Join(dir, outFile))
		if err != nil {
			t.Fatalf("traced: %v", err)
		}
		names = append(names, append(jsonKeys(t, r), jsonKeys(t, tr.Layers)...))
	}
	if bytes.Equal(traces[0], traces[1]) {
		t.Error("seeds 1 and 2 produced the same trace")
	}
	if !reflect.DeepEqual(names[0], names[1]) {
		t.Errorf("metric names differ between seeds:\n%v\n%v", names[0], names[1])
	}
}

func jsonKeys(t *testing.T, v any) []string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

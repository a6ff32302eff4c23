package sched

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/channel"
	"repro/internal/pusch"
)

// readJobsLineByLine is the reference parse ReadJobs must agree with:
// one line at a time on the calling goroutine, stopping at the first
// bad line.
func readJobsLineByLine(r io.Reader, defaults pusch.ChainConfig) ([]Job, error) {
	var jobs []Job
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var sp Spec
		if err := json.Unmarshal([]byte(text), &sp); err != nil {
			return nil, fmt.Errorf("sched: job stream line %d: %w", line, err)
		}
		job, err := sp.Job(defaults)
		if err != nil {
			return nil, fmt.Errorf("sched: job stream line %d: %w", line, err)
		}
		jobs = append(jobs, job)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sched: job stream: %w", err)
	}
	return jobs, nil
}

// withProcs runs fn under GOMAXPROCS n.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// windowTraceLines is a replayable trace several parse windows long:
// mobile Table I mix jobs with channel, layout and timing coordinates,
// one spec per line.
func windowTraceLines(t *testing.T, jobs int) []string {
	t.Helper()
	base := Mobile(tinyChain(), channel.TDLB, 30, 0)
	trace := MixedTrace(TableIMix(&base), jobs, 2, 1)
	for i := range trace {
		if i%3 == 0 {
			trace[i].Chain.Timing = pusch.TimingAnalytic
		}
	}
	var buf bytes.Buffer
	if err := WriteSpecs(&buf, trace); err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
}

// checkReadJobs parses stream at GOMAXPROCS 1 and 4 and requires both to
// match the line-by-line reference exactly: deep-equal jobs, or the
// same error text.
func checkReadJobs(t *testing.T, name, stream string) {
	t.Helper()
	want, wantErr := readJobsLineByLine(strings.NewReader(stream), tinyChain())
	for _, procs := range []int{1, 4} {
		var got []Job
		var err error
		withProcs(procs, func() { got, err = ReadJobs(strings.NewReader(stream), tinyChain()) })
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s, GOMAXPROCS %d: error %v, line-by-line parse says %v", name, procs, err, wantErr)
		}
		if wantErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, GOMAXPROCS %d: %d jobs differ from the line-by-line parse's %d", name, procs, len(got), len(want))
		}
	}
}

// TestReadJobsAcrossWindows: a trace three windows long, with comment
// and blank lines interleaved, parses to deep-equal jobs at any
// GOMAXPROCS, and comment lines still count toward line numbers.
func TestReadJobsAcrossWindows(t *testing.T) {
	lines := windowTraceLines(t, 3*parseWindow+17)
	checkReadJobs(t, "plain", strings.Join(lines, "\n"))

	var commented []string
	for i, l := range lines {
		switch i % 997 {
		case 0:
			commented = append(commented, "# comment", "")
		case 1:
			commented = append(commented, "   # indented comment", " \t ")
		}
		commented = append(commented, l)
	}
	stream := strings.Join(commented, "\n")
	checkReadJobs(t, "commented", stream)
	jobs, err := ReadJobs(strings.NewReader(stream), tinyChain())
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(lines) {
		t.Fatalf("commented trace parsed to %d jobs, want %d", len(jobs), len(lines))
	}
}

// TestReadJobsFirstErrorAcrossWindows: a bad line just before, on and
// just after a window boundary — alone, or followed by later bad lines
// in the same or the next window — fails with the lowest-numbered bad
// line's error at any GOMAXPROCS, and so does a line over the 1 MiB
// scanner limit, wherever it sits relative to the bad lines.
func TestReadJobsFirstErrorAcrossWindows(t *testing.T) {
	lines := make([]string, 2*parseWindow+50)
	for i := range lines {
		lines[i] = fmt.Sprintf(`{"arrival_cycle": %d, "seed": %d}`, 1000*i, i+1)
	}
	badJSON := `{"arrival_cycle": `
	badSpec := `{"arrival_cycle": 5, "scheme": "8psk"}`
	long := `{"name": "` + strings.Repeat("x", 1100*1024) + `"}`
	with := func(repl map[int]string) string {
		out := append([]string(nil), lines...)
		for i, l := range repl {
			out[i] = l
		}
		return strings.Join(out, "\n")
	}
	for _, at := range []int{parseWindow - 1, parseWindow, parseWindow + 1} {
		checkReadJobs(t, fmt.Sprintf("json@%d", at), with(map[int]string{at: badJSON}))
		checkReadJobs(t, fmt.Sprintf("spec@%d", at), with(map[int]string{at: badSpec}))
		checkReadJobs(t, fmt.Sprintf("json@%d+spec@%d", at, at+3), with(map[int]string{at: badJSON, at + 3: badSpec}))
		checkReadJobs(t, fmt.Sprintf("spec@%d+json@%d", at, at+parseWindow), with(map[int]string{at: badSpec, at + parseWindow: badJSON}))
		checkReadJobs(t, fmt.Sprintf("long@%d", at), with(map[int]string{at: long}))
		checkReadJobs(t, fmt.Sprintf("json@%d+long@%d", at-5, at), with(map[int]string{at - 5: badJSON, at: long}))
		checkReadJobs(t, fmt.Sprintf("long@%d+json@%d", at, at+5), with(map[int]string{at: long, at + 5: badJSON}))
	}
	// Every case above must actually fail.
	if _, err := ReadJobs(strings.NewReader(with(map[int]string{parseWindow: long})), tinyChain()); err == nil {
		t.Fatal("a line over 1 MiB must fail the parse")
	}
}

// serialJSONL is the reference stream encoding: one json.Encoder over
// the served records in arrival order, then the wire summary.
func serialJSONL(t *testing.T, results []JobResult, sum any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range results {
		if results[i].Outcome == Served {
			if err := enc.Encode(&results[i].Record); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := enc.Encode(sum); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWriteJSONLAcrossEncodeWindows: a 5k-job analytic trace, longer
// than one encode window, streams byte-identically at Workers 1, 2 and
// 8, and every stream equals one serial encoder's bytes.
func TestWriteJSONLAcrossEncodeWindows(t *testing.T) {
	model := analyticModel(t)
	trace := analyticTrace(t, 5000)
	cfg := Config{Servers: 2, Seed: 1, Model: model}
	results, sum := (&Scheduler{Cfg: cfg}).Serve(trace)
	sum.Pool, sum.Host = nil, nil
	want := serialJSONL(t, results, &sum)
	if sum.Served <= encodeWindow {
		t.Fatalf("only %d served records; the trace must cross an encode window", sum.Served)
	}
	for _, workers := range []int{1, 2, 8} {
		cfg.Workers = workers
		got, _ := serveBytes(t, cfg, trace)
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: %d-byte stream differs from the serial encoding (%d bytes)", workers, len(got), len(want))
		}
	}
}

package sched

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/arch"
	"repro/internal/pusch"
	"repro/internal/timecache"
	"repro/internal/timing"
	"repro/internal/waveform"
)

// fastPathTrace is the fast-path replay shape in miniature: even
// positions are analytic jobs, odd positions cycle-accurate jobs on 12
// recurring pinned-seed coordinates (each Table I mix entry at 4
// payload seeds), so once those 12 are cached the engine never runs.
func fastPathTrace(n int) []Job {
	base := pusch.ChainConfig{
		Cluster: arch.MemPool(),
		NSC:     64, NR: 16, NB: 8,
		NSymb: 6, NPilot: 2,
		Scheme: waveform.QPSK,
		SNRdB:  20,
	}
	trace := MixedTrace(TableIMix(&base), n, 20, 1)
	for i := range trace {
		if i%2 == 0 {
			trace[i].Chain.Timing = pusch.TimingAnalytic
		} else {
			trace[i].Chain.Seed = 1 + uint64(i/2%4)
		}
	}
	return trace
}

// BenchmarkReadJobs parses a 20k-job replay trace (the fast-path shape)
// from its JSONL bytes.
func BenchmarkReadJobs(b *testing.B) {
	var raw bytes.Buffer
	if err := WriteSpecs(&raw, fastPathTrace(20000)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(raw.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobs, err := ReadJobs(bytes.NewReader(raw.Bytes()), pusch.ChainConfig{})
		if err != nil || len(jobs) != 20000 {
			b.Fatalf("parsed %d jobs: %v", len(jobs), err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/20000, "ns/job")
}

// BenchmarkWriteJSONLFastPath serves a 20k-job analytic+cached trace in
// process to io.Discard: resolution through the analytic model and the
// warm service-time cache, replay, and JSONL encoding — every serving
// layer except the engine.
func BenchmarkWriteJSONLFastPath(b *testing.B) {
	model, err := timing.Load("../../testdata/calibration.json")
	if err != nil {
		b.Fatal(err)
	}
	trace := fastPathTrace(20000)
	cache := timecache.New(0)
	warm := &Scheduler{Cfg: Config{Cache: cache, Model: model}}
	if _, err := warm.WriteJSONL(io.Discard, trace); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &Scheduler{Cfg: Config{Cache: cache, Model: model}}
		sum, err := s.WriteJSONL(io.Discard, trace)
		if err != nil || sum.Served+sum.Dropped != len(trace) || sum.Host.CacheMisses != 0 {
			b.Fatalf("serve: %v (served %d, dropped %d, misses %d)", err, sum.Served, sum.Dropped, sum.Host.CacheMisses)
		}
	}
	b.ReportMetric(float64(len(trace))*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

package sched

import (
	"bytes"
	"encoding/json"
	"io"
	"sort"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/pusch"
	"repro/internal/report"
)

// Scheduler admits a trace of slot jobs and serves it through the
// configured discipline. The zero value is usable: one server, the
// default queue depth, GOMAXPROCS measurement workers.
type Scheduler struct {
	Cfg Config

	// measure is the per-job measurement hook; nil runs the real chain
	// on a pooled machine. Tests stub it to probe the queueing
	// discipline with synthetic service times.
	measure MeasureFunc
}

// Serve runs the whole trace through the serving core — one serving
// class, one cell — and returns per-job results in arrival order plus
// the aggregate service summary. Individual job failures are reported
// per job; Serve itself never fails.
func (s *Scheduler) Serve(jobs []Job) ([]JobResult, report.ServiceSummary) {
	c := s.Cfg
	m := Measure(Resolver{Workers: c.Workers, Seed: c.Seed, Cache: c.Cache, Model: c.Model, Measure: s.measure}, jobs, []Class{nil})
	lane := NewLane(0, c.Servers, c.QueueDepth, c.Metrics)
	results := Replay(jobs, m, []Lane{lane}, nil)
	sum := Summarize(results, AllCells, lane.Servers, lane.QueueCap)
	sum.Pool = m.Pool
	host := m.Host()
	sum.Host = &host
	if reg := c.Metrics; reg != nil {
		RecordServiceMetrics(reg, "", results, &sum)
		RecordHostMetrics(reg, &host, sum.Pool, c.Cache)
	}
	return results, sum
}

// WriteJSONL serves the trace and streams one JobRecord JSON line per
// served job (arrival order) followed by one final summary line tagged
// kind="summary". Output is byte-identical across runs and worker
// counts for the same trace and configuration.
func (s *Scheduler) WriteJSONL(w io.Writer, jobs []Job) (report.ServiceSummary, error) {
	results, sum := s.Serve(jobs)
	if err := WriteRecords(w, results, s.Cfg.Workers); err != nil {
		return sum, err
	}
	// The pool and host stats vary with the host worker count and wall
	// clock; the stream's byte-determinism contract excludes them
	// (callers read them off the returned summary instead).
	wire := sum
	wire.Pool = nil
	wire.Host = nil
	return sum, json.NewEncoder(w).Encode(&wire)
}

// encodeWindow is how many results WriteRecords encodes per fan-out
// round before writing them out, and encodeChunk how many one worker
// encodes per claimed unit of work.
const (
	encodeWindow = 2048
	encodeChunk  = 256
)

// WriteRecords streams the JobRecord of every served result, in result
// order, one JSON line each: the record body of the scheduler's and the
// fleet's JSONL streams. Results are encoded in windows of encodeWindow
// across workers goroutines (<= 0 means GOMAXPROCS), each worker with
// its own json.Encoder, and every window is written in result order, so
// the bytes are exactly one serial encoder's whatever the worker count.
// On an encoding error the records before the failing one are written
// and the error returned, as with a serial encoder.
func WriteRecords(w io.Writer, results []JobResult, workers int) error {
	type chunk struct {
		buf bytes.Buffer
		err error
	}
	chunks := make([]chunk, encodeWindow/encodeChunk)
	workers = engine.Workers(workers, len(chunks))
	sinks := make([]retarget, workers)
	encs := make([]*json.Encoder, workers)
	for i := range encs {
		encs[i] = json.NewEncoder(&sinks[i])
	}
	for lo := 0; lo < len(results); lo += encodeWindow {
		win := results[lo:min(lo+encodeWindow, len(results))]
		n := (len(win) + encodeChunk - 1) / encodeChunk
		engine.ForEach(n, workers, func(wk, c int) {
			ch := &chunks[c]
			ch.buf.Reset()
			ch.err = nil
			sinks[wk].buf = &ch.buf
			part := win[c*encodeChunk : min((c+1)*encodeChunk, len(win))]
			for i := range part {
				if part[i].Outcome != Served {
					continue
				}
				if ch.err = encs[wk].Encode(&part[i].Record); ch.err != nil {
					return
				}
			}
		})
		for c := range chunks[:n] {
			if _, err := w.Write(chunks[c].buf.Bytes()); err != nil {
				return err
			}
			if err := chunks[c].err; err != nil {
				return err
			}
		}
	}
	return nil
}

// retarget is an io.Writer whose destination buffer can be switched
// between writes, so one json.Encoder per worker can fill any chunk.
type retarget struct{ buf *bytes.Buffer }

func (r *retarget) Write(p []byte) (int, error) { return r.buf.Write(p) }

// AllCells selects every result in Summarize, whichever cell served it.
const AllCells = -1

// Summarize computes the aggregate service picture of the results
// routed to cell, or of every result when cell is AllCells; a dropped
// job's OfferedBits supplies the offered payload of its discarded
// measurement, which never reached a JobRecord. The fleet layer
// summarizes each cell with the cell's own service discipline and the
// whole fleet with its total server count. Arrivals outside [0,
// MaxArrival] belong to jobs that failed before measurement and do not
// extend the horizon.
func Summarize(results []JobResult, cell, servers, queueCap int) report.ServiceSummary {
	sum := report.ServiceSummary{
		Kind:       "summary",
		Servers:    servers,
		QueueDepth: queueCap,
	}
	var firstArrival, lastEvent int64
	var busy, waitSum, latSum int64
	var waits, lats []int64
	analytic := 0
	seen := false
	for i := range results {
		r := &results[i]
		if cell != AllCells && r.Cell != cell {
			continue
		}
		sum.Jobs++
		if validArrival(r.Arrival) {
			if !seen || r.Arrival < firstArrival {
				firstArrival = r.Arrival
			}
			seen = true
			if r.Arrival > lastEvent {
				lastEvent = r.Arrival
			}
		}
		switch r.Outcome {
		case Served:
			sum.Served++
			if r.Record.Timing == string(pusch.TimingAnalytic) {
				analytic++
			}
			sum.OfferedBits += r.Record.PayloadBits
			sum.ServedBits += r.Record.PayloadBits
			busy += r.ServiceCycles
			waitSum += r.Record.WaitCycles
			latSum += r.Record.LatencyCycles
			waits = append(waits, r.Record.WaitCycles)
			lats = append(lats, r.Record.LatencyCycles)
			if r.Record.WaitCycles > sum.MaxWaitCycles {
				sum.MaxWaitCycles = r.Record.WaitCycles
			}
			if r.Record.LatencyCycles > sum.MaxLatencyCycles {
				sum.MaxLatencyCycles = r.Record.LatencyCycles
			}
			if r.Record.FinishCycle > lastEvent {
				lastEvent = r.Record.FinishCycle
			}
		case Dropped:
			sum.Dropped++
			// A dropped slot's payload was offered but never served.
			sum.OfferedBits += r.OfferedBits
		case Failed:
			sum.Failed++
		}
	}
	// A run whose every served record came from the analytic model is
	// itself analytic: the summary carries the stamp so downstream
	// consumers never mistake predicted service figures for measured
	// ones. Mixed runs stay unstamped (their per-record stamps tell).
	if sum.Served > 0 && analytic == sum.Served {
		sum.Timing = string(pusch.TimingAnalytic)
	}
	sum.HorizonCycles = lastEvent - firstArrival
	sum.HorizonMs = float64(sum.HorizonCycles) / CyclesPerMs
	if sum.HorizonCycles > 0 {
		sum.OfferedGbps = report.Gbps(sum.OfferedBits, sum.HorizonCycles)
		sum.ServedGbps = report.Gbps(sum.ServedBits, sum.HorizonCycles)
		sum.Utilization = float64(busy) / (float64(servers) * float64(sum.HorizonCycles))
	}
	if sum.Served > 0 {
		sum.MeanWaitCycles = float64(waitSum) / float64(sum.Served)
		sum.MeanLatencyCycles = float64(latSum) / float64(sum.Served)
		sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		sum.WaitP50Cycles = obs.PercentileInt64(waits, 50)
		sum.WaitP95Cycles = obs.PercentileInt64(waits, 95)
		sum.WaitP99Cycles = obs.PercentileInt64(waits, 99)
		sum.LatencyP50Cycles = obs.PercentileInt64(lats, 50)
		sum.LatencyP95Cycles = obs.PercentileInt64(lats, 95)
		sum.LatencyP99Cycles = obs.PercentileInt64(lats, 99)
	}
	if sum.Jobs > 0 {
		sum.DropRate = float64(sum.Dropped) / float64(sum.Jobs)
	}
	return sum
}

package sched

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/pusch"
	"repro/internal/report"
	"repro/internal/timecache"
	"repro/internal/timing"
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

// MeasureFunc measures one fully stamped slot configuration on a
// machine from the pool. The production implementation runs the real
// chain; tests substitute synthetic service times.
type MeasureFunc func(pool *engine.Machines, cfg pusch.ChainConfig) (report.SlotRecord, error)

// measureChain is the production measurement: one chain run on a
// machine recycled through the worker's pool shard.
func measureChain(pool *engine.Machines, cfg pusch.ChainConfig) (report.SlotRecord, error) {
	if cfg.Cluster == nil {
		cfg.Cluster = arch.MemPool()
	}
	// Validate before pool.Get: NewMachine panics on broken cluster
	// configs, and a bad job must surface as a Failed result, not abort
	// the service.
	if err := cfg.Cluster.Validate(); err != nil {
		return report.SlotRecord{}, err
	}
	m := pool.Get(cfg.Cluster)
	rec, err := pusch.RunChainRecordOn(m, cfg)
	pool.Put(m)
	return rec, err
}

// measured is one job's phase-1 outcome.
type measured struct {
	rec report.SlotRecord
	err error
}

// Resolve measures one fully stamped slot configuration through the
// service fast paths, in precedence order: the calibrated analytic
// model (for jobs whose Timing asks for it), the service-time cache,
// then the engine via measure (nil means the production chain). It is
// the single resolution path shared by the scheduler and the fleet
// layer, so every serving stack composes identically with the cache
// and the analytic mode.
//
// Analytic jobs resolve against the model before — and entirely
// instead of — the cache and the machine pool; their stamped records
// can never enter the cache (CacheKey refuses them, and timecache.Add
// refuses stamped records). A cache-key derivation error (invalid
// config, non-canonical layout) bypasses the cache entirely: invalid
// configs still surface as errors from the measurement itself, and
// unkeyable-but-valid ones are simply measured every time.
func Resolve(pool *engine.Machines, cfg pusch.ChainConfig, cache *timecache.Cache, model *timing.Model, measure MeasureFunc) (report.SlotRecord, error) {
	if measure == nil {
		measure = measureChain
	}
	if cfg.Timing == pusch.TimingAnalytic {
		if model == nil {
			return report.SlotRecord{}, fmt.Errorf("sched: analytic timing requested but no calibration model is loaded (Config.Model)")
		}
		return model.Predict(cfg)
	}
	key := ""
	if cache != nil {
		if k, err := cfg.CacheKey(); err == nil {
			key = k
			if rec, ok := cache.Lookup(key); ok {
				return rec, nil
			}
		}
	}
	rec, err := measure(pool, cfg)
	if key != "" && err == nil {
		cache.Add(key, rec)
	}
	return rec, err
}

// Serve runs the whole trace and returns per-job results in arrival
// order plus the aggregate service summary. Individual job failures are
// reported per job; Serve itself never fails.
func (s *Scheduler) Serve(jobs []Job) ([]JobResult, report.ServiceSummary) {
	start := time.Now()
	var before timecache.Stats
	if s.Cfg.Cache != nil {
		before = s.Cfg.Cache.Stats()
	}
	order := arrivalOrder(jobs)
	meas, pool := s.measureAll(jobs, order)
	results, sum := s.replay(jobs, order, meas, pool)
	host := report.HostStats{WallSeconds: time.Since(start).Seconds()}
	if host.WallSeconds > 0 {
		host.SlotsPerSec = float64(len(jobs)) / host.WallSeconds
	}
	if s.Cfg.Cache != nil {
		after := s.Cfg.Cache.Stats()
		host.CacheHits = after.Hits - before.Hits
		host.CacheMisses = after.Misses - before.Misses
		if total := host.CacheHits + host.CacheMisses; total > 0 {
			host.CacheHitRate = float64(host.CacheHits) / float64(total)
		}
	}
	sum.Host = &host
	if reg := s.Cfg.Metrics; reg != nil {
		RecordServiceMetrics(reg, "", results, &sum)
		entries := 0
		if s.Cfg.Cache != nil {
			entries = s.Cfg.Cache.Stats().Entries
		}
		RecordHostMetrics(reg, &host, sum.Pool, entries)
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

// arrivalOrder returns job indices sorted by arrival cycle, stable in
// input order for simultaneous arrivals.
func arrivalOrder(jobs []Job) []int {
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return jobs[order[a]].Arrival < jobs[order[b]].Arrival
	})
	return order
}

// measureAll runs phase 1: every job resolved across the sharded
// machine pool, one shard per worker. meas is indexed by arrival-order
// position.
func (s *Scheduler) measureAll(jobs []Job, order []int) ([]measured, *engine.Sharded) {
	base := s.Cfg.Seed
	if base == 0 {
		base = 1
	}
	workers := engine.Workers(s.Cfg.Workers, len(jobs))
	sharded := engine.NewSharded(workers)
	meas := make([]measured, len(jobs))
	engine.ForEach(len(jobs), workers, func(w, pos int) {
		cfg := jobs[order[pos]].Chain
		if cfg.Seed == 0 {
			cfg.Seed = jobSeed(base, pos)
		}
		rec, err := Resolve(sharded.Shard(w), cfg, s.Cfg.Cache, s.Cfg.Model, s.measure)
		meas[pos] = measured{rec: rec, err: err}
	})
	return meas, sharded
}

// replay runs phase 2: the serial virtual-time event loop over the
// measured service times — a G/D/c/K queue with FIFO order, earliest
// free server first (lowest index on ties).
func (s *Scheduler) replay(jobs []Job, order []int, meas []measured, pool *engine.Sharded) ([]JobResult, report.ServiceSummary) {
	servers := s.Cfg.Servers
	if servers < 1 {
		servers = 1
	}
	queueCap := s.Cfg.QueueDepth
	switch {
	case queueCap == 0:
		queueCap = DefaultQueueDepth
	case queueCap < 0:
		queueCap = 0
	}

	results := make([]JobResult, len(jobs))
	free := make([]int64, servers) // each server's next-free cycle
	var queue []int                // waiting jobs, arrival-order positions

	// Queue depth sampled at each arrival event over virtual time (nil
	// registry: nil handle, no-op observations).
	depthH := s.Cfg.Metrics.Histogram(MetricQueueDepth,
		"wait-queue depth sampled at each admission decision, over virtual time", obs.DepthBuckets)

	// earliest returns the server that frees first (lowest index ties).
	earliest := func() (srv int, at int64) {
		srv, at = 0, free[0]
		for i := 1; i < servers; i++ {
			if free[i] < at {
				srv, at = i, free[i]
			}
		}
		return srv, at
	}
	// assign starts job pos on srv at cycle start and fills its record.
	assign := func(pos, srv int, start int64) {
		r := &results[pos]
		svc := r.ServiceCycles
		finish := start + svc
		free[srv] = finish
		r.Outcome = Served
		r.Record = report.JobRecord{
			Job:           pos,
			Name:          r.Name,
			SlotRecord:    meas[pos].rec,
			ArrivalCycle:  r.Arrival,
			StartCycle:    start,
			FinishCycle:   finish,
			WaitCycles:    start - r.Arrival,
			LatencyCycles: finish - r.Arrival,
		}
	}

	for pos, ji := range order {
		job := &jobs[ji]
		r := &results[pos]
		r.Job, r.Name, r.Arrival = pos, job.Name, job.Arrival
		if meas[pos].err != nil {
			r.Outcome = Failed
			r.Error = meas[pos].err.Error()
			continue
		}
		r.ServiceCycles = meas[pos].rec.TotalCycles
		r.OfferedBits = meas[pos].rec.PayloadBits

		// Drain completions up to this arrival: queued jobs start as
		// servers free.
		for len(queue) > 0 {
			srv, at := earliest()
			if at > job.Arrival {
				break
			}
			assign(queue[0], srv, at)
			queue = queue[1:]
		}
		if srv, at := earliest(); len(queue) == 0 && at <= job.Arrival {
			assign(pos, srv, job.Arrival)
		} else if len(queue) < queueCap {
			queue = append(queue, pos)
		} else {
			r.Outcome = Dropped
		}
		depthH.Observe(int64(len(queue)))
	}
	for len(queue) > 0 {
		srv, at := earliest()
		assign(queue[0], srv, at)
		queue = queue[1:]
	}

	sum := Summarize(results, servers, queueCap)
	stats := pool.Stats()
	sum.Pool = &stats
	return results, sum
}

// Summarize computes the aggregate service picture from per-job
// results; a dropped job's OfferedBits supplies the offered payload of
// its discarded measurement, which never reached a JobRecord. It is
// exported for the fleet layer, which summarizes each cell's slice of
// a fleet run with the cell's own service discipline.
func Summarize(results []JobResult, servers, queueCap int) report.ServiceSummary {
	sum := report.ServiceSummary{
		Kind:       "summary",
		Jobs:       len(results),
		Servers:    servers,
		QueueDepth: queueCap,
	}
	var firstArrival, lastEvent int64
	var busy, waitSum, latSum int64
	var waits, lats []int64
	analytic := 0
	for i := range results {
		r := &results[i]
		if i == 0 || r.Arrival < firstArrival {
			firstArrival = r.Arrival
		}
		if r.Arrival > lastEvent {
			lastEvent = r.Arrival
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

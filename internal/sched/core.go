package sched

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/campaign"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/pusch"
	"repro/internal/report"
	"repro/internal/timecache"
	"repro/internal/timing"
)

// MeasureFunc measures one fully stamped slot configuration on a
// machine from the pool (see campaign.MeasureFunc).
type MeasureFunc = campaign.MeasureFunc

// Resolve is the one resolution path, campaign.Resolve: the analytic
// model, then the service-time cache, then the engine via measure.
func Resolve(pool *engine.Machines, cfg pusch.ChainConfig, cache *timecache.Cache, model *timing.Model, measure MeasureFunc) (report.SlotRecord, error) {
	return campaign.Resolve(pool, cfg, cache, model, measure)
}

// MaxArrival is the latest arrival cycle the serving core accepts. A
// job arriving before cycle 0 or after MaxArrival fails before it is
// measured. The bound leaves 2^62 cycles of headroom, far more than the
// summed service of any trace, so no arrival plus service can overflow
// int64 in the replay.
const MaxArrival int64 = 1 << 62

// validArrival reports whether an arrival cycle lies in [0, MaxArrival].
func validArrival(at int64) bool { return at >= 0 && at <= MaxArrival }

// Class is one serving class of the measure phase: it turns a job's
// chain configuration into the configuration the class serves. A nil
// Class is the identity.
type Class func(pusch.ChainConfig) pusch.ChainConfig

// Resolver is the measure phase's setup: the host fan-out, the
// fallback payload seed and the fast paths every job resolves through.
type Resolver struct {
	// Workers and Seed are as in Config.
	Workers int
	Seed    uint64
	Cache   *timecache.Cache
	Model   *timing.Model
	// Measure runs one engine measurement (nil means the production
	// chain); tests stub it with synthetic service times.
	Measure MeasureFunc
}

// Measured is one (class, job) outcome of the measure phase.
type Measured struct {
	Rec report.SlotRecord
	Err error
}

// Measurement is the measure phase's output.
type Measurement struct {
	// Order lists job indices in arrival order, stable in input order
	// for simultaneous arrivals.
	Order []int
	// Meas is indexed [class][arrival-order position].
	Meas [][]Measured
	// Pool is the machine-pool occupancy the phase left behind, held
	// apart so a summary pointing at it does not keep Meas alive.
	Pool *engine.PoolStats

	start  time.Time
	cache  *timecache.Cache
	before timecache.Stats
}

// Measure is the measure phase: it resolves every job under every class
// through r, across one sharded machine pool, one shard per worker. A job whose Chain does not pin a
// seed gets campaign.DeriveSeed(Seed, its arrival-order position); a job
// whose arrival lies outside [0, MaxArrival] fails in every class
// without being resolved.
func Measure(r Resolver, jobs []Job, classes []Class) *Measurement {
	m := &Measurement{start: time.Now(), cache: r.Cache}
	if r.Cache != nil {
		m.before = r.Cache.Stats()
	}
	m.Order = make([]int, len(jobs))
	for i := range m.Order {
		m.Order[i] = i
	}
	sort.SliceStable(m.Order, func(a, b int) bool {
		return jobs[m.Order[a]].Arrival < jobs[m.Order[b]].Arrival
	})

	base := r.Seed
	if base == 0 {
		base = 1
	}
	total := len(classes) * len(jobs)
	workers := engine.Workers(r.Workers, total)
	sharded := engine.NewSharded(workers)
	m.Meas = make([][]Measured, len(classes))
	for cls := range m.Meas {
		m.Meas[cls] = make([]Measured, len(jobs))
	}
	engine.ForEach(total, workers, func(w, k int) {
		cls, pos := k/len(jobs), k%len(jobs)
		job := &jobs[m.Order[pos]]
		if !validArrival(job.Arrival) {
			m.Meas[cls][pos].Err = fmt.Errorf("sched: arrival_cycle %d outside the accepted range [0, %d]", job.Arrival, MaxArrival)
			return
		}
		cfg := job.Chain
		if classes[cls] != nil {
			cfg = classes[cls](cfg)
		}
		if cfg.Seed == 0 {
			cfg.Seed = campaign.DeriveSeed(base, pos)
		}
		rec, err := Resolve(sharded.Shard(w), cfg, r.Cache, r.Model, r.Measure)
		m.Meas[cls][pos] = Measured{Rec: rec, Err: err}
	})
	pool := sharded.Stats()
	m.Pool = &pool
	return m
}

// Host returns the run's host-side picture so far: wall time since the
// measure phase began, slots per second, and the cache traffic the
// phase caused.
func (m *Measurement) Host() report.HostStats {
	host := report.HostStats{WallSeconds: time.Since(m.start).Seconds()}
	if host.WallSeconds > 0 {
		host.SlotsPerSec = float64(len(m.Order)) / host.WallSeconds
	}
	if m.cache != nil {
		after := m.cache.Stats()
		host.CacheHits = after.Hits - m.before.Hits
		host.CacheMisses = after.Misses - m.before.Misses
		if total := host.CacheHits + host.CacheMisses; total > 0 {
			host.CacheHitRate = float64(host.CacheHits) / float64(total)
		}
	}
	return host
}

// Lane is one cell's queue discipline in the replay loop.
type Lane struct {
	// Class indexes the serving class whose measurements the cell
	// serves.
	Class int
	// Servers and QueueCap are the normalised discipline (see NewLane).
	Servers, QueueCap int
	// Depth, when non-nil, samples the wait-queue depth at each
	// admission decision, over virtual time.
	Depth *obs.Histogram
}

// NewLane normalises a configured discipline as Config documents it:
// servers < 1 means one server, queue depth 0 means DefaultQueueDepth
// and a negative depth means no queue at all. The lane's depth
// histogram is registered in reg under labels (nil reg records
// nothing).
func NewLane(class, servers, queueDepth int, reg *obs.Registry, labels ...string) Lane {
	switch {
	case queueDepth == 0:
		queueDepth = DefaultQueueDepth
	case queueDepth < 0:
		queueDepth = 0
	}
	depth := reg.Histogram(MetricQueueDepth,
		"wait-queue depth sampled at each admission decision, over virtual time", obs.DepthBuckets, labels...)
	return Lane{Class: class, Servers: max(servers, 1), QueueCap: queueDepth, Depth: depth}
}

// Route picks the cell that admits the job at arrival position pos.
// backlog(c) is cell c's busy servers plus queued jobs at the job's
// arrival, after every completion up to that instant has been drained.
type Route func(pos int, job *Job, backlog func(cell int) int) int

// Replay is the serial virtual-time loop over the measured service
// times: a G/D/c/K queue per lane with FIFO order, earliest free server
// first (lowest index on ties) and drop on a full queue. At each
// arrival every lane's completions up to that instant are drained, then
// route (nil means lane 0) picks the lane that admits the job. Results
// are in arrival order; routing reads only replay state, the measured
// outcomes and the job, so results are independent of measurement order
// and worker count.
func Replay(jobs []Job, m *Measurement, lanes []Lane, route Route) []JobResult {
	type state struct {
		free  []int64 // each server's next-free cycle
		queue []int   // waiting jobs, arrival-order positions
	}
	cells := make([]state, len(lanes))
	for c := range cells {
		cells[c].free = make([]int64, lanes[c].Servers)
	}
	results := make([]JobResult, len(m.Order))

	// earliest returns cell c's first-free server (lowest index ties).
	earliest := func(c int) (srv int, at int64) {
		free := cells[c].free
		srv, at = 0, free[0]
		for i := 1; i < len(free); i++ {
			if free[i] < at {
				srv, at = i, free[i]
			}
		}
		return srv, at
	}
	// assign starts job pos on cell c's server srv at cycle start.
	assign := func(c, pos, srv int, start int64) {
		r := &results[pos]
		finish := start + r.ServiceCycles
		cells[c].free[srv] = finish
		r.Outcome = Served
		r.Record = report.JobRecord{
			Job:           pos,
			Name:          r.Name,
			Cell:          c,
			SlotRecord:    m.Meas[lanes[c].Class][pos].Rec,
			ArrivalCycle:  r.Arrival,
			StartCycle:    start,
			FinishCycle:   finish,
			WaitCycles:    start - r.Arrival,
			LatencyCycles: finish - r.Arrival,
		}
	}
	// drain starts cell c's queued jobs as its servers free, up to
	// cycle until.
	drain := func(c int, until int64) {
		for len(cells[c].queue) > 0 {
			srv, at := earliest(c)
			if at > until {
				return
			}
			assign(c, cells[c].queue[0], srv, at)
			cells[c].queue = cells[c].queue[1:]
		}
	}
	var arrival int64
	backlog := func(c int) int {
		n := len(cells[c].queue)
		for _, at := range cells[c].free {
			if at > arrival {
				n++
			}
		}
		return n
	}

	for pos, ji := range m.Order {
		job := &jobs[ji]
		r := &results[pos]
		r.Job, r.Name, r.Arrival = pos, job.Name, job.Arrival
		arrival = job.Arrival
		for c := range cells {
			drain(c, arrival)
		}
		c := 0
		if route != nil {
			c = route(pos, job, backlog)
		}
		r.Cell = c
		ms := &m.Meas[lanes[c].Class][pos]
		if ms.Err != nil {
			r.Outcome = Failed
			r.Error = ms.Err.Error()
			continue
		}
		r.ServiceCycles = ms.Rec.TotalCycles
		r.OfferedBits = ms.Rec.PayloadBits

		cell := &cells[c]
		if srv, at := earliest(c); len(cell.queue) == 0 && at <= arrival {
			assign(c, pos, srv, arrival)
		} else if len(cell.queue) < lanes[c].QueueCap {
			cell.queue = append(cell.queue, pos)
		} else {
			r.Outcome = Dropped
		}
		lanes[c].Depth.Observe(int64(len(cell.queue)))
	}
	for c := range cells {
		drain(c, math.MaxInt64)
	}
	return results
}

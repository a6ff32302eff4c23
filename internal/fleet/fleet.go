package fleet

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"time"

	"repro/internal/arch"
	"repro/internal/campaign"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/pusch"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/timecache"
	"repro/internal/timing"
)

// Cell is one basestation cell of a fleet: a serving class (cluster
// geometry, stage layout, timing mode) plus its own service discipline
// (virtual slot servers and bounded wait queue). The zero value is the
// plain scheduler's cell: stock MemPool cluster, sequential layout,
// cycle-accurate timing, one server, the default queue depth.
//
// A cell's serving class applies to a routed job as defaults only —
// jobs that pin their own cluster, a pipelined layout, or a timing
// mode keep them — so a single-cell fleet of the zero Cell serves any
// trace byte-identically to the standalone scheduler.
type Cell struct {
	// Name labels the cell in per-cell summaries ("macro-0", "pico-2");
	// empty names stay empty.
	Name string
	// Cluster is the cell's cluster geometry for jobs that do not pin
	// one (nil means the measurement default, stock MemPool).
	Cluster *arch.Config
	// Layout is the cell's stage layout for jobs that do not pin a
	// pipelined one (the zero Layout is the sequential schedule).
	Layout pusch.Layout
	// Timing is the cell's timing mode for jobs that do not pin one
	// (the zero mode is cycle-accurate).
	Timing pusch.TimingMode
	// Servers is the cell's virtual slot-processor count (<= 0 means 1);
	// QueueDepth bounds its wait queue (0 means sched.DefaultQueueDepth,
	// negative means no queue at all), exactly as in sched.Config.
	Servers    int
	QueueDepth int
}

// apply resolves a routed job's serving coordinates against the cell:
// unpinned coordinates inherit the cell's, pinned ones win.
func (c *Cell) apply(cfg pusch.ChainConfig) pusch.ChainConfig {
	if cfg.Cluster == nil {
		cfg.Cluster = c.Cluster
	}
	if !cfg.Layout.Pipelined() && c.Layout.Pipelined() {
		cfg.Layout = c.Layout
	}
	if cfg.Timing == pusch.TimingCycleAccurate {
		cfg.Timing = c.Timing
	}
	return cfg
}

// classKey is the cell's serving-class identity: two cells with equal
// keys transform every job identically, so their measurements are
// shared. The cluster part is the timing fingerprint (ArchFingerprint),
// never the name, so lookalike geometries can't alias.
func (c *Cell) classKey() string {
	fp := ""
	if c.Cluster != nil {
		fp = pusch.ArchFingerprint(c.Cluster)
	}
	return fp + "|" + c.Layout.String() + "|" + string(c.Timing)
}

// Config is a fleet deployment: the cells, the routing policy, and the
// shared serving machinery (measurement fan-out, payload seeding, and
// the sched fast paths, which apply per cell exactly as they do to a
// standalone scheduler).
type Config struct {
	// Cells is the deployment (empty means one zero-value cell).
	Cells []Cell
	// Policy routes arrivals over the cells ("" means round-robin).
	Policy Policy
	// Workers is the host-side measurement fan-out (<= 0 means
	// GOMAXPROCS). It affects wall-clock time only, never results.
	Workers int
	// Seed is the fallback payload seed for jobs that do not pin one,
	// applied by arrival-order position exactly as sched.Config.Seed.
	Seed uint64
	// Cache and Model are the PR 6 / PR 7 fast paths, shared by every
	// cell's measurements (see sched.Config).
	Cache *timecache.Cache
	Model *timing.Model
	// Metrics, when non-nil, receives the fleet's deterministic metric
	// families: the sched families labeled per cell (cell="0", …), the
	// per-cell handover counters, and the shared cache/pool families.
	// Nil records nothing (see sched.Config.Metrics).
	Metrics *obs.Registry
}

// Fleet serves slot-traffic traces across the configured cells. The
// zero value is usable: one default cell, round-robin routing.
type Fleet struct {
	Cfg Config

	// measure is the per-job measurement hook; nil runs the real chain
	// on a pooled machine. Tests stub it to probe routing and queueing
	// with synthetic service times.
	measure sched.MeasureFunc
}

// measured is one (serving class, job) phase-1 outcome.
type measured struct {
	rec report.SlotRecord
	err error
}

// cellState is one cell's replay state: per-server next-free cycles
// and the FIFO wait queue (arrival-order positions).
type cellState struct {
	free  []int64
	queue []int
}

// Serve runs the whole trace across the fleet and returns per-job
// results in arrival order plus the fleet summary (with every cell's
// ServiceSummary in PerCell). Individual job failures are reported per
// job; Serve itself never fails.
func (f *Fleet) Serve(jobs []sched.Job) ([]sched.JobResult, report.FleetSummary) {
	start := time.Now()
	var before timecache.Stats
	if f.Cfg.Cache != nil {
		before = f.Cfg.Cache.Stats()
	}

	cells := f.Cfg.Cells
	if len(cells) == 0 {
		cells = []Cell{{}}
	}
	order := arrivalOrder(jobs)
	meas, classOf, pool := f.measureAll(cells, jobs, order)
	results, handoversTo := f.replay(cells, jobs, order, meas, classOf)
	handovers := 0
	for _, h := range handoversTo {
		handovers += h
	}
	sum := f.summarize(cells, jobs, results, handovers)

	stats := pool.Stats()
	sum.Pool = &stats
	host := report.HostStats{WallSeconds: time.Since(start).Seconds()}
	if host.WallSeconds > 0 {
		host.SlotsPerSec = float64(len(jobs)) / host.WallSeconds
	}
	if f.Cfg.Cache != nil {
		after := f.Cfg.Cache.Stats()
		host.CacheHits = after.Hits - before.Hits
		host.CacheMisses = after.Misses - before.Misses
		if total := host.CacheHits + host.CacheMisses; total > 0 {
			host.CacheHitRate = float64(host.CacheHits) / float64(total)
		}
	}
	sum.Host = &host
	if reg := f.Cfg.Metrics; reg != nil {
		f.recordMetrics(reg, results, &sum, handoversTo, &host)
	}
	return results, sum
}

// WriteJSONL serves the trace and streams one JobRecord JSON line per
// served job (arrival order), then one summary line per cell, then the
// fleet summary line (kind="fleet-summary"). A single-cell fleet
// degenerates to the plain scheduler's wire format — one kind="summary"
// line, no fleet line — byte-identical to sched.Scheduler.WriteJSONL on
// the same trace. Output is byte-identical across runs and worker
// counts for the same trace and configuration.
func (f *Fleet) WriteJSONL(w io.Writer, jobs []sched.Job) (report.FleetSummary, error) {
	results, sum := f.Serve(jobs)
	if err := sched.WriteRecords(w, results, f.Cfg.Workers); err != nil {
		return sum, err
	}
	enc := json.NewEncoder(w)
	// Pool and host stats vary with the host worker count and wall
	// clock; the stream's byte-determinism contract excludes them
	// (callers read them off the returned summary instead).
	for c := range sum.PerCell {
		wire := sum.PerCell[c]
		wire.Pool = nil
		wire.Host = nil
		if err := enc.Encode(&wire); err != nil {
			return sum, err
		}
	}
	if sum.Cells > 1 {
		wire := sum
		wire.PerCell = nil
		wire.Pool = nil
		wire.Host = nil
		if err := enc.Encode(&wire); err != nil {
			return sum, err
		}
	}
	return sum, nil
}

// Served re-exports the sched outcome for fleet callers.
const Served = sched.Served

// arrivalOrder returns job indices sorted by arrival cycle, stable in
// input order for simultaneous arrivals (sched's discipline).
func arrivalOrder(jobs []sched.Job) []int {
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return jobs[order[a]].Arrival < jobs[order[b]].Arrival
	})
	return order
}

// measureAll runs phase 1: every job measured under every distinct
// serving class across one sharded machine pool. meas is indexed
// [class][arrival-order position]; classOf maps cell index to class.
// Identical cells share a class, so a homogeneous N-cell fleet costs
// exactly one measurement pass — and each class resolves through the
// cache and the analytic model exactly like a standalone scheduler.
func (f *Fleet) measureAll(cells []Cell, jobs []sched.Job, order []int) ([][]measured, []int, *engine.Sharded) {
	classOf := make([]int, len(cells))
	classCell := []int{}
	keys := map[string]int{}
	for c := range cells {
		key := cells[c].classKey()
		cls, ok := keys[key]
		if !ok {
			cls = len(classCell)
			keys[key] = cls
			classCell = append(classCell, c)
		}
		classOf[c] = cls
	}

	base := f.Cfg.Seed
	if base == 0 {
		base = 1
	}
	total := len(classCell) * len(jobs)
	workers := engine.Workers(f.Cfg.Workers, total)
	sharded := engine.NewSharded(workers)
	meas := make([][]measured, len(classCell))
	for cls := range meas {
		meas[cls] = make([]measured, len(jobs))
	}
	engine.ForEach(total, workers, func(w, k int) {
		cls, pos := k/len(jobs), k%len(jobs)
		cfg := cells[classCell[cls]].apply(jobs[order[pos]].Chain)
		if cfg.Seed == 0 {
			cfg.Seed = campaign.DeriveSeed(base, pos)
		}
		rec, err := sched.Resolve(sharded.Shard(w), cfg, f.Cfg.Cache, f.Cfg.Model, f.measure)
		meas[cls][pos] = measured{rec: rec, err: err}
	})
	return meas, classOf, sharded
}

// replay runs phase 2: one serial virtual-time event loop over every
// cell's queue. At each arrival all completions up to that instant are
// drained (so the policy sees the true backlog), the policy routes the
// job, and the chosen cell admits it under sched's G/D/c/K discipline:
// earliest free server (lowest index on ties), FIFO bounded queue,
// drop on overflow. Routing reads only replay state and the job itself,
// so results are independent of measurement order and worker count.
// The second return value counts handovers by destination cell.
func (f *Fleet) replay(cells []Cell, jobs []sched.Job, order []int, meas [][]measured, classOf []int) ([]sched.JobResult, []int) {
	n := len(cells)
	states := make([]cellState, n)
	queueCap := make([]int, n)
	for c := range cells {
		servers := cells[c].Servers
		if servers < 1 {
			servers = 1
		}
		states[c].free = make([]int64, servers)
		switch q := cells[c].QueueDepth; {
		case q == 0:
			queueCap[c] = sched.DefaultQueueDepth
		case q < 0:
			queueCap[c] = 0
		default:
			queueCap[c] = q
		}
	}

	base := f.Cfg.Seed
	if base == 0 {
		base = 1
	}
	results := make([]sched.JobResult, len(jobs))

	// Per-cell queue depth sampled at each routed arrival (nil registry:
	// no handles, no observations).
	var depthH []*obs.Histogram
	if reg := f.Cfg.Metrics; reg != nil {
		depthH = make([]*obs.Histogram, n)
		for c := range depthH {
			depthH[c] = reg.Histogram(sched.MetricQueueDepth,
				"wait-queue depth sampled at each admission decision, over virtual time",
				obs.DepthBuckets, "cell", strconv.Itoa(c))
		}
	}

	// earliest returns cell c's first-free server (lowest index ties).
	earliest := func(c int) (srv int, at int64) {
		free := states[c].free
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
		svc := r.ServiceCycles
		finish := start + svc
		states[c].free[srv] = finish
		r.Outcome = sched.Served
		r.Record = report.JobRecord{
			Job:           pos,
			Name:          r.Name,
			Cell:          c,
			SlotRecord:    meas[classOf[c]][pos].rec,
			ArrivalCycle:  r.Arrival,
			StartCycle:    start,
			FinishCycle:   finish,
			WaitCycles:    start - r.Arrival,
			LatencyCycles: finish - r.Arrival,
		}
	}
	// drain completes cell c's queued work up to the arrival instant.
	drain := func(c int, arrival int64) {
		for len(states[c].queue) > 0 {
			srv, at := earliest(c)
			if at > arrival {
				break
			}
			assign(c, states[c].queue[0], srv, at)
			states[c].queue = states[c].queue[1:]
		}
	}

	rr := 0
	pick := func(pos int, job *sched.Job) int {
		switch f.Cfg.Policy {
		case LeastQueue:
			best, bestLoad := 0, int(^uint(0)>>1)
			for c := 0; c < n; c++ {
				load := len(states[c].queue)
				for _, at := range states[c].free {
					if at > job.Arrival {
						load++
					}
				}
				if load < bestLoad {
					best, bestLoad = c, load
				}
			}
			return best
		case SINRAware:
			// The UE's identity is its fading seed; legacy jobs fall back
			// to their (stamped) payload seed so they still route
			// deterministically. Channel time is the UE's own clock.
			ueSeed := job.Chain.Channel.Seed
			if ueSeed == 0 {
				if ueSeed = job.Chain.Seed; ueSeed == 0 {
					ueSeed = campaign.DeriveSeed(base, pos)
				}
			}
			tMs := job.Chain.Channel.TimeMs
			if tMs == 0 {
				tMs = float64(job.Arrival) / sched.CyclesPerMs
			}
			best, bestSINR, found := 0, 0.0, false
			for c := 0; c < n; c++ {
				// Only admissible cells — classes whose measurement of this
				// job succeeded — compete; if none did, cell 0 reports the
				// failure.
				if meas[classOf[c]][pos].err != nil {
					continue
				}
				sinr := EffectiveSINRdB(job.Chain.SNRdB, ueSeed, c, tMs)
				if !found || sinr > bestSINR {
					best, bestSINR, found = c, sinr, true
				}
			}
			return best
		default: // RoundRobin
			c := rr % n
			rr++
			return c
		}
	}

	handoversTo := make([]int, n)
	lastCell := make(map[uint64]int)
	for pos, ji := range order {
		job := &jobs[ji]
		r := &results[pos]
		r.Job, r.Name, r.Arrival = pos, job.Name, job.Arrival
		// Drain every cell first: completions are global events in
		// virtual time, and the policy must see the post-drain backlog.
		for c := 0; c < n; c++ {
			drain(c, job.Arrival)
		}
		cell := pick(pos, job)
		r.Cell = cell
		m := &meas[classOf[cell]][pos]
		if m.err != nil {
			r.Outcome = sched.Failed
			r.Error = m.err.Error()
			continue
		}
		r.ServiceCycles = m.rec.TotalCycles
		r.OfferedBits = m.rec.PayloadBits

		if srv, at := earliest(cell); len(states[cell].queue) == 0 && at <= job.Arrival {
			assign(cell, pos, srv, job.Arrival)
		} else if len(states[cell].queue) < queueCap[cell] {
			states[cell].queue = append(states[cell].queue, pos)
		} else {
			r.Outcome = sched.Dropped
		}
		if depthH != nil {
			depthH[cell].Observe(int64(len(states[cell].queue)))
		}
		// A mobile UE hands over when an admitted slot lands on a
		// different cell than its previous one (dropped slots never
		// occupied the cell, so they don't move the UE).
		if r.Outcome != sched.Dropped {
			if seed := job.Chain.Channel.Seed; seed != 0 {
				if prev, ok := lastCell[seed]; ok && prev != cell {
					handoversTo[cell]++
				}
				lastCell[seed] = cell
			}
		}
	}
	for c := 0; c < n; c++ {
		for len(states[c].queue) > 0 {
			srv, at := earliest(c)
			assign(c, states[c].queue[0], srv, at)
			states[c].queue = states[c].queue[1:]
		}
	}
	return results, handoversTo
}

// summarize aggregates the replayed fleet: one ServiceSummary per cell
// (each over exactly its routed jobs, so per-cell counters sum to the
// fleet's) plus the fleet-wide traffic picture.
func (f *Fleet) summarize(cells []Cell, jobs []sched.Job, results []sched.JobResult, handovers int) report.FleetSummary {
	n := len(cells)
	perCell := make([][]sched.JobResult, n)
	for i := range results {
		c := results[i].Cell
		perCell[c] = append(perCell[c], results[i])
	}

	sum := report.FleetSummary{
		Kind:      "fleet-summary",
		Cells:     n,
		Policy:    string(f.Cfg.Policy),
		Jobs:      len(results),
		Handovers: handovers,
	}
	if sum.Policy == "" {
		sum.Policy = string(RoundRobin)
	}
	ues := make(map[uint64]struct{})
	for i := range jobs {
		if seed := jobs[i].Chain.Channel.Seed; seed != 0 {
			ues[seed] = struct{}{}
		}
	}
	sum.MobileUEs = len(ues)

	totalServers := 0
	var busy int64
	analytic := 0
	var firstArrival, lastEvent int64
	var waits, lats []int64
	for i := range results {
		r := &results[i]
		if i == 0 || r.Arrival < firstArrival {
			firstArrival = r.Arrival
		}
		if r.Arrival > lastEvent {
			lastEvent = r.Arrival
		}
		if r.Outcome == sched.Served {
			busy += r.ServiceCycles
			if r.Record.Timing == string(pusch.TimingAnalytic) {
				analytic++
			}
			if r.Record.FinishCycle > lastEvent {
				lastEvent = r.Record.FinishCycle
			}
			waits = append(waits, r.Record.WaitCycles)
			lats = append(lats, r.Record.LatencyCycles)
		}
	}
	if len(waits) > 0 {
		sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		sum.WaitP50Cycles = obs.PercentileInt64(waits, 50)
		sum.WaitP95Cycles = obs.PercentileInt64(waits, 95)
		sum.WaitP99Cycles = obs.PercentileInt64(waits, 99)
		sum.LatencyP50Cycles = obs.PercentileInt64(lats, 50)
		sum.LatencyP95Cycles = obs.PercentileInt64(lats, 95)
		sum.LatencyP99Cycles = obs.PercentileInt64(lats, 99)
	}

	sum.PerCell = make([]report.ServiceSummary, n)
	for c := 0; c < n; c++ {
		servers := cells[c].Servers
		if servers < 1 {
			servers = 1
		}
		totalServers += servers
		queueCap := cells[c].QueueDepth
		switch {
		case queueCap == 0:
			queueCap = sched.DefaultQueueDepth
		case queueCap < 0:
			queueCap = 0
		}
		cs := sched.Summarize(perCell[c], servers, queueCap)
		if n > 1 {
			cs.Kind = "cell-summary"
			cs.Cell = c
		}
		cs.Name = cells[c].Name
		sum.PerCell[c] = cs
		sum.Served += cs.Served
		sum.Dropped += cs.Dropped
		sum.Failed += cs.Failed
		sum.OfferedBits += cs.OfferedBits
		sum.ServedBits += cs.ServedBits
	}
	if sum.Served > 0 && analytic == sum.Served {
		sum.Timing = string(pusch.TimingAnalytic)
	}
	sum.HorizonCycles = lastEvent - firstArrival
	sum.HorizonMs = float64(sum.HorizonCycles) / sched.CyclesPerMs
	if sum.HorizonCycles > 0 {
		sum.OfferedGbps = report.Gbps(sum.OfferedBits, sum.HorizonCycles)
		sum.ServedGbps = report.Gbps(sum.ServedBits, sum.HorizonCycles)
		sum.Utilization = float64(busy) / (float64(totalServers) * float64(sum.HorizonCycles))
	}
	if sum.Jobs > 0 {
		sum.DropRate = float64(sum.Dropped) / float64(sum.Jobs)
	}
	return sum
}

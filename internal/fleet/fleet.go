package fleet

import (
	"encoding/json"
	"io"
	"strconv"

	"repro/internal/arch"
	"repro/internal/campaign"
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
		// A job that pins another cluster refits the cell's split to it.
		cfg.Layout = c.Layout.ForCluster(cfg.Cluster)
	}
	if cfg.Timing == pusch.TimingCycleAccurate {
		cfg.Timing = c.Timing
	}
	return cfg
}

// classKey is the cell's serving-class identity: two cells with equal
// keys transform every job identically, so their measurements are
// shared. Neither the cluster (keyed by ArchFingerprint, never by name)
// nor the layout (keyed by its wire form, the whole Layout) can alias.
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

// Serve runs the whole trace across the fleet and returns per-job
// results in arrival order plus the fleet summary (with every cell's
// ServiceSummary in PerCell). It runs sched's serving core with one
// serving class per distinct cell class and one lane per cell, routed
// by the policy. Individual job failures are reported per job; Serve
// itself never fails.
func (f *Fleet) Serve(jobs []sched.Job) ([]sched.JobResult, report.FleetSummary) {
	cells := f.Cfg.Cells
	if len(cells) == 0 {
		cells = []Cell{{}}
	}
	classes, lanes := f.lanes(cells)
	m := sched.Measure(sched.Resolver{
		Workers: f.Cfg.Workers, Seed: f.Cfg.Seed, Cache: f.Cfg.Cache, Model: f.Cfg.Model, Measure: f.measure,
	}, jobs, classes)
	results := sched.Replay(jobs, m, lanes, f.route(m, lanes))
	handoversTo := handovers(jobs, m.Order, results, len(cells))
	sum := f.summarize(cells, lanes, jobs, results, handoversTo)
	sum.Pool = m.Pool
	host := m.Host()
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

// lanes builds the measure phase's serving classes and the replay's
// cell lanes. Identical cells share a class, so a homogeneous N-cell
// fleet costs exactly one measurement pass.
func (f *Fleet) lanes(cells []Cell) ([]sched.Class, []sched.Lane) {
	var classes []sched.Class
	lanes := make([]sched.Lane, len(cells))
	keys := map[string]int{}
	for c := range cells {
		key := cells[c].classKey()
		cls, ok := keys[key]
		if !ok {
			cls = len(classes)
			keys[key] = cls
			classes = append(classes, cells[c].apply)
		}
		lanes[c] = sched.NewLane(cls, cells[c].Servers, cells[c].QueueDepth, f.Cfg.Metrics, "cell", strconv.Itoa(c))
	}
	return classes, lanes
}

// route is the policy's sched.Route. It reads only the replay's backlog,
// the measure phase's outcomes and the job itself.
func (f *Fleet) route(m *sched.Measurement, lanes []sched.Lane) sched.Route {
	n := len(lanes)
	base := f.Cfg.Seed
	if base == 0 {
		base = 1
	}
	rr := 0
	return func(pos int, job *sched.Job, backlog func(int) int) int {
		switch f.Cfg.Policy {
		case LeastQueue:
			best, bestLoad := 0, int(^uint(0)>>1)
			for c := 0; c < n; c++ {
				if load := backlog(c); load < bestLoad {
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
				if m.Meas[lanes[c].Class][pos].Err != nil {
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
}

// handovers counts, by destination cell, the admissions where a mobile
// UE's cell differs from its previous admission's. Every admitted job
// ends up Served (dropped and failed jobs never occupied a cell, so they
// don't move the UE), so one pass over the served results in arrival
// order sees exactly the replay's admissions.
func handovers(jobs []sched.Job, order []int, results []sched.JobResult, n int) []int {
	to := make([]int, n)
	lastCell := make(map[uint64]int)
	for pos := range results {
		r := &results[pos]
		seed := jobs[order[pos]].Chain.Channel.Seed
		if r.Outcome != sched.Served || seed == 0 {
			continue
		}
		if prev, ok := lastCell[seed]; ok && prev != r.Cell {
			to[r.Cell]++
		}
		lastCell[seed] = r.Cell
	}
	return to
}

// summarize aggregates the replayed fleet: one ServiceSummary per cell
// (each over exactly its routed jobs, so per-cell counters sum to the
// fleet's) plus the fleet-wide traffic picture, which is sched's
// summary of every result over the fleet's total server count.
func (f *Fleet) summarize(cells []Cell, lanes []sched.Lane, jobs []sched.Job, results []sched.JobResult, handoversTo []int) report.FleetSummary {
	n := len(cells)
	totalServers := 0
	sum := report.FleetSummary{
		Kind:    "fleet-summary",
		Cells:   n,
		Policy:  string(f.Cfg.Policy),
		PerCell: make([]report.ServiceSummary, n),
	}
	if sum.Policy == "" {
		sum.Policy = string(RoundRobin)
	}
	for c := 0; c < n; c++ {
		cs := sched.Summarize(results, c, lanes[c].Servers, lanes[c].QueueCap)
		if n > 1 {
			cs.Kind = "cell-summary"
			cs.Cell = c
		}
		cs.Name = cells[c].Name
		sum.PerCell[c] = cs
		totalServers += lanes[c].Servers
		sum.Handovers += handoversTo[c]
	}
	ues := make(map[uint64]struct{})
	for i := range jobs {
		if seed := jobs[i].Chain.Channel.Seed; seed != 0 {
			ues[seed] = struct{}{}
		}
	}
	sum.MobileUEs = len(ues)

	all := sched.Summarize(results, sched.AllCells, totalServers, 0)
	sum.Timing = all.Timing
	sum.Jobs, sum.Served, sum.Dropped, sum.Failed = all.Jobs, all.Served, all.Dropped, all.Failed
	sum.HorizonCycles, sum.HorizonMs = all.HorizonCycles, all.HorizonMs
	sum.OfferedBits, sum.ServedBits = all.OfferedBits, all.ServedBits
	sum.OfferedGbps, sum.ServedGbps = all.OfferedGbps, all.ServedGbps
	sum.Utilization, sum.DropRate = all.Utilization, all.DropRate
	sum.WaitP50Cycles, sum.WaitP95Cycles, sum.WaitP99Cycles = all.WaitP50Cycles, all.WaitP95Cycles, all.WaitP99Cycles
	sum.LatencyP50Cycles, sum.LatencyP95Cycles, sum.LatencyP99Cycles = all.LatencyP50Cycles, all.LatencyP95Cycles, all.LatencyP99Cycles
	return sum
}

package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/pusch"
	"repro/internal/report"
	"repro/internal/sched"
)

// span is one timed call into a layer's public API, made from this
// package. Parent 0 marks a root; Job is the arrival-order position of
// the job the call served, or -1 outside any job.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Job    int    `json:"job"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog is one goroutine's span buffer; spans stay in memory until
// the traced run writes them out. A nil log records nothing, so the
// untraced serve shares the traced serve's set-up code.
type spanLog struct {
	t0    time.Time
	ids   *atomic.Int64
	spans []span
}

// begin opens a span and returns its index in the log.
func (l *spanLog) begin(name string, parent int64, job int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{
		ID: l.ids.Add(1), Parent: parent, Name: name, Job: job,
		Start: int64(time.Since(l.t0)),
	})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) {
	if l != nil {
		l.spans[i].End = int64(time.Since(l.t0))
	}
}

func (l *spanLog) id(i int) int64 {
	if l == nil {
		return 0
	}
	return l.spans[i].ID
}

// slotSim is the simulated picture of one engine-measured slot, read
// from Pipeline.Stages. Stall counts are core-cycles summed over cores.
type slotSim struct {
	total                  int64
	fft, bf, che, ne, mimo int64
	instrs, lsu, raw, wfi  int64
}

// slotAlloc is the heap bytes one slot's chain stages allocated.
type slotAlloc struct{ tx, pipeline, score uint64 }

// chain composes the measurement the scheduler's production path runs
// (pusch.RunChainRecordOn) from the chain's public stages, with a span
// around each call: NewSlotTX, NewPipeline, RunSymbol per symbol,
// Drain, ScoreSlot and ChainResult.Record. A non-nil alloc also reads
// the heap counters around each stage; that is for a single goroutine
// only.
func chain(l *spanLog, parent int64, job int, m *engine.Machine, cfg pusch.ChainConfig, alloc *slotAlloc) (report.SlotRecord, slotSim, error) {
	var sim slotSim
	cfg, err := cfg.Normalized()
	if err != nil {
		return report.SlotRecord{}, sim, err
	}
	var ms runtime.MemStats
	heap := func() uint64 {
		if alloc == nil {
			return 0
		}
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	// The chain's payload stream, seeded as pusch.RunChainOn seeds it.
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15))

	h0 := heap()
	s := l.begin("pusch.tx", parent, job)
	tx, err := pusch.NewSlotTX(&cfg, rng)
	l.end(s)
	if err != nil {
		return report.SlotRecord{}, sim, err
	}

	h1 := heap()
	p := l.begin("pusch.pipeline", parent, job)
	pid := l.id(p)
	s = l.begin("pusch.pipeline.plan", pid, job)
	pl, err := pusch.NewPipeline(m, cfg)
	l.end(s)
	if err != nil {
		return report.SlotRecord{}, sim, err
	}
	for sym := 0; sym < cfg.NSymb; sym++ {
		s = l.begin("pusch.pipeline.symbol", pid, job)
		err = pl.RunSymbol(sym, tx.RxTime[sym])
		l.end(s)
		if err != nil {
			return report.SlotRecord{}, sim, err
		}
	}
	s = l.begin("pusch.pipeline.drain", pid, job)
	err = pl.Drain()
	l.end(s)
	l.end(p)
	if err != nil {
		return report.SlotRecord{}, sim, err
	}

	h2 := heap()
	s = l.begin("pusch.score", parent, job)
	lm, err := pusch.ScoreSlot(&cfg, tx, pl.Detected())
	l.end(s)
	if err != nil {
		return report.SlotRecord{}, sim, err
	}
	h3 := heap()
	res := &pusch.ChainResult{
		BER:         lm.BER,
		EVMdB:       lm.EVMdB,
		SigmaEst:    pl.Sigma(),
		TotalCycles: pl.Cycles(),
		TimeMs:      float64(pl.Cycles()) / 1e6,
		Stages:      pl.Stages(),
	}
	s = l.begin("pusch.record", parent, job)
	rec := res.Record(cfg)
	l.end(s)
	if alloc != nil {
		*alloc = slotAlloc{tx: h1 - h0, pipeline: h2 - h1, score: h3 - h2}
	}

	sim.total = res.TotalCycles
	for st, r := range res.Stages {
		switch st {
		case pusch.StageOFDM:
			sim.fft = r.Wall
		case pusch.StageBF:
			sim.bf = r.Wall
		case pusch.StageCHE:
			sim.che = r.Wall
		case pusch.StageNE:
			sim.ne = r.Wall
		case pusch.StageMIMO:
			sim.mimo = r.Wall
		}
		sim.instrs += r.Stats.Instrs
		sim.lsu += r.Stats.LsuStalls
		sim.raw += r.Stats.RawStalls
		sim.wfi += r.Stats.WfiStalls
	}
	return rec, sim, nil
}

// measureFunc is the benchmark's sched.MeasureFunc for one job: the
// production measurement (pool.Get, the chain, pool.Put) with a span
// around the machine hand-out, named after whether it built a new
// machine or reset a pooled one.
func measureFunc(l *spanLog, parent int64, job int, sims *[]slotSim) sched.MeasureFunc {
	return func(pool *engine.Machines, cfg pusch.ChainConfig) (report.SlotRecord, error) {
		if cfg.Cluster == nil {
			cfg.Cluster = arch.MemPool()
		}
		if err := cfg.Cluster.Validate(); err != nil {
			return report.SlotRecord{}, err
		}
		builds := pool.Stats().Builds
		s := l.begin("engine.reset", parent, job)
		m := pool.Get(cfg.Cluster)
		l.end(s)
		if pool.Stats().Builds > builds {
			l.spans[s].Name = "engine.new_machine"
		}
		defer pool.Put(m)
		rec, sim, err := chain(l, parent, job, m, cfg, nil)
		if err == nil {
			*sims = append(*sims, sim)
		}
		return rec, err
	}
}

// tracedResult is one traced serve, printed as a JSON line for run.py.
type tracedResult struct {
	Jobs            int                `json:"jobs"`
	Violations      int                `json:"violations"`
	Messages        []string           `json:"messages,omitempty"`
	TracedSlotsPerS float64            `json:"traced_slots_per_s"`
	Layers          map[string]measure `json:"layers"`
}

type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tracedRun is the state one traced serve collects.
type tracedRun struct {
	w       workload
	workers int
	t0      time.Time
	ids     *atomic.Int64

	srv   served
	order []int               // job indices in arrival order
	recs  []report.SlotRecord // resolved records by arrival position
	serve []span              // the traced serve's spans
	wall  time.Duration       // the traced serve's wall time
	// stream is the encoded JSONL output; handovers is from the fleet
	// serve (0 when no fleet routed the jobs).
	stream    bytes.Buffer
	handovers int

	// The chain measurements: simulated figures per engine-measured
	// slot, the spans around their chain calls, and the heap bytes of
	// a few slots measured alone.
	sims   []slotSim
	chain  []span
	allocs []slotAlloc
	probe  *spanLog
}

func (r *tracedRun) log() *spanLog { return &spanLog{t0: r.t0, ids: r.ids} }

// tracedOnce is one traced serve of a prepared run directory. It times
// the calls into each layer from here: set-up (parse, calibration and
// cache-file loads), every job's sched.Resolve with the composed
// measurement, the warm Scheduler.Serve or Fleet.Serve that replays
// the resolved jobs, and the JSON encoding of the record stream. It
// then checks that the stream and every job's record are byte-identical
// to the untraced serve's reference output, probes the fast-path calls
// and the chain's allocations on their own, and writes the spans.
func tracedOnce(dir string, workers int, reference string) (tracedResult, error) {
	var res tracedResult
	_, w, err := readMeta(dir)
	if err != nil {
		return res, err
	}
	r := &tracedRun{w: w, workers: max(workers, 1), t0: time.Now(), ids: new(atomic.Int64)}
	var chk checkResult
	if err := r.serveTraced(dir, &chk); err != nil {
		return res, err
	}
	if err := compareReference(&chk, reference, r.stream.Bytes(), r.recs); err != nil {
		return res, err
	}
	if err := r.runProbes(&chk); err != nil {
		return res, err
	}
	if err := writeSpans(filepath.Join(dir, spansFile), r.serve, r.probe.spans); err != nil {
		return res, err
	}
	return tracedResult{
		Jobs:            len(r.srv.jobs),
		Violations:      chk.Violations,
		Messages:        chk.Messages,
		TracedSlotsPerS: float64(len(r.srv.jobs)) / r.wall.Seconds(),
		Layers:          r.layers(),
	}, nil
}

// serveTraced is the traced serve: set-up, every job resolved across
// the workers, then the replay, in which every job resolves from a
// fast path (the records just measured are in the cache), and the
// encoding of the stream as WriteJSONL writes it.
func (r *tracedRun) serveTraced(dir string, chk *checkResult) error {
	top := r.log()
	root := top.begin("serve", 0, -1)
	rootID := top.id(root)
	su := top.begin("setup", rootID, -1)
	srv, err := setup(dir, r.w, top, top.id(su))
	if err != nil {
		return err
	}
	top.end(su)
	r.srv = srv

	rs := top.begin("resolve", rootID, -1)
	logs := r.resolveAll(top.id(rs), chk)
	top.end(rs)

	var results []sched.JobResult
	if r.w.fleetCells > 0 {
		s := top.begin("fleet.serve_warm", rootID, -1)
		var sum report.FleetSummary
		results, sum = newFleet(r.w.fleetCells, r.workers, srv).Serve(srv.jobs)
		top.end(s)
		r.handovers = sum.Handovers
		s = top.begin("report.encode", rootID, -1)
		err = encodeFleet(&r.stream, results, sum)
		top.end(s)
	} else {
		s := top.begin("sched.serve_warm", rootID, -1)
		var sum report.ServiceSummary
		results, sum = newScheduler(r.workers, srv).Serve(srv.jobs)
		top.end(s)
		s = top.begin("report.encode", rootID, -1)
		err = encodeService(&r.stream, results, sum)
		top.end(s)
	}
	top.end(root)
	r.wall = top.spans[root].dur()
	r.serve = mergeSpans(append(logs, top))
	r.chain = r.serve
	return err
}

// resolveAll resolves every job in arrival order across the workers,
// each worker on its own machine-pool shard as the serving stacks do,
// and returns the workers' span logs.
func (r *tracedRun) resolveAll(parent int64, chk *checkResult) []*spanLog {
	jobs := r.srv.jobs
	r.order = make([]int, len(jobs))
	for i := range r.order {
		r.order[i] = i
	}
	sort.SliceStable(r.order, func(a, b int) bool { return jobs[r.order[a]].Arrival < jobs[r.order[b]].Arrival })
	r.recs = make([]report.SlotRecord, len(jobs))
	errs := make([]error, len(jobs))
	logs := make([]*spanLog, r.workers)
	sims := make([][]slotSim, r.workers)
	shards := engine.NewSharded(r.workers)
	next := new(atomic.Int64)
	var wg sync.WaitGroup
	for wk := range logs {
		logs[wk] = r.log()
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			l, pool := logs[wk], shards.Shard(wk)
			for {
				pos := int(next.Add(1) - 1)
				if pos >= len(jobs) {
					return
				}
				s := l.begin("sched.resolve", parent, pos)
				fn := measureFunc(l, l.id(s), pos, &sims[wk])
				r.recs[pos], errs[pos] = sched.Resolve(pool, jobs[r.order[pos]].Chain, r.srv.cache, r.srv.model, fn)
				l.end(s)
			}
		}(wk)
	}
	wg.Wait()
	for _, s := range sims {
		r.sims = append(r.sims, s...)
	}
	for pos, err := range errs {
		if err != nil {
			chk.violate("job %d: traced resolve: %v", pos, err)
		}
	}
	return logs
}

// runProbes times, outside the traced serve, every job's CacheKey and
// Cache.Lookup or Model.Predict, and the chain's heap allocations. On a
// replay of cached coordinates the engine never ran, so it also
// measures the coordinates the cache file holds, as their preparation
// did, and checks the records match the file's.
func (r *tracedRun) runProbes(chk *checkResult) error {
	srv, jobs := r.srv, r.srv.jobs
	r.probe = r.log()
	p := r.probe
	root := p.begin("probe", 0, -1)
	rootID := p.id(root)
	for pos, ji := range r.order {
		cfg := jobs[ji].Chain
		if cfg.Timing == pusch.TimingAnalytic {
			s := p.begin("timing.predict", rootID, pos)
			_, err := srv.model.Predict(cfg)
			p.end(s)
			if err != nil {
				chk.violate("job %d: predict: %v", pos, err)
			}
			continue
		}
		s := p.begin("timecache.key", rootID, pos)
		key, err := cfg.CacheKey()
		p.end(s)
		if err != nil {
			chk.violate("job %d: cache key: %v", pos, err)
			continue
		}
		s = p.begin("timecache.lookup", rootID, pos)
		_, ok := srv.cache.Lookup(key)
		p.end(s)
		if !ok {
			chk.violate("job %d: cache lookup missed after the replay", pos)
		}
	}

	if r.w.cacheFile {
		coords, err := cachedJobs(jobs)
		if err != nil {
			return err
		}
		pool := engine.NewMachines()
		first := len(p.spans)
		for k, cfg := range coords {
			s := p.begin("sched.resolve", rootID, k)
			rec, err := sched.Resolve(pool, cfg, nil, srv.model, measureFunc(p, p.id(s), k, &r.sims))
			p.end(s)
			if err != nil {
				return fmt.Errorf("probe coordinate %d: %w", k, err)
			}
			key, _ := cfg.CacheKey()
			if cached, ok := srv.cache.Lookup(key); !ok || !sameJSON(cached, rec) {
				chk.violate("coordinate %d: engine record differs from the cache file's", k)
			}
		}
		r.chain = p.spans[first:]
	}
	r.allocs = allocProbe(jobs, r.order)
	p.end(root)
	return nil
}

// layers derives the per-layer metrics from the spans and counters.
func (r *tracedRun) layers() map[string]measure {
	out := map[string]measure{}
	set := func(name string, v float64, unit string) { out[name] = measure{v, unit} }
	n := float64(len(r.srv.jobs))
	serve := spansByName(r.serve)
	probe := spansByName(r.probe.spans)
	chain := spansByName(r.chain)

	set("sched.parse_us_per_job", total(serve["sched.parse"])/n, "us")
	resolve := serve["sched.resolve"]
	tail := tailPercentile(len(resolve))
	set("sched.resolve_us_p50", percentileUs(resolve, 50), "us")
	set("sched.resolve_us_tail", percentileUs(resolve, tail), "us")
	set("sched.resolve_tail_pct", tail, "%")
	set("sched.resolve_samples", float64(len(resolve)), "count")
	// Only the workload's own serving stack runs; the other reads 0.
	set("sched.serve_warm_us_per_job", total(serve["sched.serve_warm"])/n, "us")
	set("fleet.serve_warm_us_per_job", total(serve["fleet.serve_warm"])/n, "us")
	set("fleet.handovers", float64(r.handovers), "count")
	set("report.encode_us_per_job", total(serve["report.encode"])/n, "us")
	set("report.bytes_per_job", float64(r.stream.Len())/n, "B")

	slots := float64(len(r.sims))
	perSlot := func(v float64) float64 {
		if slots == 0 {
			return 0
		}
		return v / slots
	}
	set("pusch.tx_us_per_slot", perSlot(total(chain["pusch.tx"])), "us")
	set("pusch.pipeline_us_per_slot", perSlot(total(chain["pusch.pipeline"])), "us")
	set("pusch.score_us_per_slot", perSlot(total(chain["pusch.score"])), "us")
	sim := func(f func(slotSim) int64) float64 {
		var t float64
		for _, s := range r.sims {
			t += float64(f(s))
		}
		return t
	}
	cyclesPerUs := 0.0
	if pipe := total(chain["pusch.pipeline"]); pipe > 0 {
		cyclesPerUs = sim(func(s slotSim) int64 { return s.total }) / pipe
	}
	set("pusch.pipeline_sim_cycles_per_host_us", cyclesPerUs, "cycles/us")
	kbPerSlot := func(f func(slotAlloc) uint64) float64 {
		if len(r.allocs) == 0 {
			return 0
		}
		var b uint64
		for _, a := range r.allocs {
			b += f(a)
		}
		return float64(b) / 1024 / float64(len(r.allocs))
	}
	set("pusch.tx_kb_alloc_per_slot", kbPerSlot(func(a slotAlloc) uint64 { return a.tx }), "KB")
	set("pusch.pipeline_kb_alloc_per_slot", kbPerSlot(func(a slotAlloc) uint64 { return a.pipeline }), "KB")
	set("pusch.score_kb_alloc_per_slot", kbPerSlot(func(a slotAlloc) uint64 { return a.score }), "KB")
	set("engine.new_machine_ms", meanUs(chain["engine.new_machine"])/1000, "ms")
	set("engine.reset_us", meanUs(chain["engine.reset"]), "us")

	set("sim.fft_cycles_per_slot", perSlot(sim(func(s slotSim) int64 { return s.fft })), "cycles")
	set("sim.bf_cycles_per_slot", perSlot(sim(func(s slotSim) int64 { return s.bf })), "cycles")
	set("sim.che_cycles_per_slot", perSlot(sim(func(s slotSim) int64 { return s.che })), "cycles")
	set("sim.ne_cycles_per_slot", perSlot(sim(func(s slotSim) int64 { return s.ne })), "cycles")
	set("sim.mimo_cycles_per_slot", perSlot(sim(func(s slotSim) int64 { return s.mimo })), "cycles")
	set("sim.instrs_per_slot", perSlot(sim(func(s slotSim) int64 { return s.instrs })), "count")
	set("sim.lsu_stalls_per_slot", perSlot(sim(func(s slotSim) int64 { return s.lsu })), "core-cycles")
	set("sim.raw_stalls_per_slot", perSlot(sim(func(s slotSim) int64 { return s.raw })), "core-cycles")
	set("sim.wfi_stalls_per_slot", perSlot(sim(func(s slotSim) int64 { return s.wfi })), "core-cycles")

	set("timing.load_ms", total(serve["timing.load"])/1000, "ms")
	set("timing.predict_us", percentileUs(probe["timing.predict"], 50), "us")
	set("timecache.load_ms", total(serve["timecache.load"])/1000, "ms")
	set("timecache.key_us", percentileUs(probe["timecache.key"], 50), "us")
	set("timecache.lookup_us", percentileUs(probe["timecache.lookup"], 50), "us")

	self := selfTimes(r.serve)
	for _, layer := range []string{"sched", "fleet", "pusch", "engine", "report", "timing", "timecache"} {
		set(layer+".self_us_per_job", self[layer]/n, "us")
	}
	return out
}

// encodeService and encodeFleet write the stream WriteJSONL writes for
// already served results: served records in arrival order, then the
// wire summaries without their host-side pool and host stats.
func encodeService(w io.Writer, results []sched.JobResult, sum report.ServiceSummary) error {
	enc := json.NewEncoder(w)
	for i := range results {
		if results[i].Outcome == sched.Served {
			if err := enc.Encode(&results[i].Record); err != nil {
				return err
			}
		}
	}
	sum.Pool, sum.Host = nil, nil
	return enc.Encode(&sum)
}

func encodeFleet(w io.Writer, results []sched.JobResult, sum report.FleetSummary) error {
	enc := json.NewEncoder(w)
	for i := range results {
		if results[i].Outcome == fleet.Served {
			if err := enc.Encode(&results[i].Record); err != nil {
				return err
			}
		}
	}
	for _, cell := range sum.PerCell {
		cell.Pool, cell.Host = nil, nil
		if err := enc.Encode(&cell); err != nil {
			return err
		}
	}
	if sum.Cells > 1 {
		sum.PerCell, sum.Pool, sum.Host = nil, nil, nil
		return enc.Encode(&sum)
	}
	return nil
}

// compareReference checks the traced stream and every served job's
// record against the untraced serve's output.
func compareReference(c *checkResult, path string, stream []byte, recs []report.SlotRecord) error {
	ref, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading reference stream: %w", err)
	}
	if sha256.Sum256(ref) != sha256.Sum256(stream) {
		c.violate("traced stream differs from the untraced serve's")
	}
	sc := bufio.NewScanner(bytes.NewReader(ref))
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		if !bytes.Contains(sc.Bytes(), []byte(`"kind":"chain"`)) {
			continue
		}
		var r report.JobRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return fmt.Errorf("reference record: %w", err)
		}
		if r.Job < 0 || r.Job >= len(recs) || !sameJSON(r.SlotRecord, recs[r.Job]) {
			c.violate("job %d: traced record differs from the untraced serve's", r.Job)
		}
	}
	return sc.Err()
}

func sameJSON(a, b report.SlotRecord) bool {
	x, errX := json.Marshal(a)
	y, errY := json.Marshal(b)
	return errX == nil && errY == nil && bytes.Equal(x, y)
}

// cachedJobs returns the distinct cycle-accurate coordinates of a
// trace, in first-arrival order.
func cachedJobs(jobs []sched.Job) ([]pusch.ChainConfig, error) {
	seen := map[string]bool{}
	var out []pusch.ChainConfig
	for _, j := range jobs {
		if j.Chain.Timing == pusch.TimingAnalytic {
			continue
		}
		key, err := j.Chain.CacheKey()
		if err != nil {
			return nil, err
		}
		if !seen[key] {
			seen[key] = true
			out = append(out, j.Chain)
		}
	}
	return out, nil
}

// allocProbeSlots is how many cycle-accurate slots the allocation
// probe measures; allocations follow the slot's shape, not its
// payload, so the first few slots in arrival order suffice.
const allocProbeSlots = 6

// allocProbe runs the chain alone, untraced, on a few cycle-accurate
// slots and reads the heap counters around each stage.
func allocProbe(jobs []sched.Job, order []int) []slotAlloc {
	pool := engine.NewMachines()
	var out []slotAlloc
	for pos, ji := range order {
		cfg := jobs[ji].Chain
		if cfg.Timing == pusch.TimingAnalytic {
			continue
		}
		if cfg.Cluster == nil {
			cfg.Cluster = arch.MemPool()
		}
		m := pool.Get(cfg.Cluster)
		var a slotAlloc
		_, _, err := chain(nil, 0, pos, m, cfg, &a)
		pool.Put(m)
		if err == nil {
			out = append(out, a)
		}
		if len(out) == allocProbeSlots {
			break
		}
	}
	return out
}

func mergeSpans(logs []*spanLog) []span {
	var out []span
	for _, l := range logs {
		out = append(out, l.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// selfTimes sums, per layer (the span name up to its first dot), each
// span's duration minus the part its direct children cover, in µs.
func selfTimes(spans []span) map[string]float64 {
	children := map[int64]time.Duration{}
	for i := range spans {
		children[spans[i].Parent] += spans[i].dur()
	}
	self := map[string]float64{}
	for i := range spans {
		s := &spans[i]
		layer, _, ok := strings.Cut(s.Name, ".")
		if !ok {
			continue // the benchmark's own roots
		}
		self[layer] += us(s.dur() - children[s.ID])
	}
	return self
}

func writeSpans(path string, groups ...[]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, g := range groups {
		for i := range g {
			if err := enc.Encode(&g[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func spansByName(spans []span) map[string][]span {
	out := map[string][]span{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func total(spans []span) float64 {
	var t float64
	for i := range spans {
		t += us(spans[i].dur())
	}
	return t
}

func meanUs(spans []span) float64 {
	if len(spans) == 0 {
		return 0
	}
	return total(spans) / float64(len(spans))
}

// percentileUs is the spans' nearest-rank q-th percentile duration.
func percentileUs(spans []span, q float64) float64 {
	ns := make([]int64, len(spans))
	for i := range spans {
		ns[i] = spans[i].End - spans[i].Start
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	return us(time.Duration(obs.PercentileInt64(ns, q)))
}

// tailPercentile is the highest of a few standard percentiles that
// leaves at least ten samples beyond it (50 when none does).
func tailPercentile(n int) float64 {
	for _, q := range []float64{99.9, 99, 95, 90, 75} {
		if float64(n)*(1-q/100) >= 10 {
			return q
		}
	}
	return 50
}

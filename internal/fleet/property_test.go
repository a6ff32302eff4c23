package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/channel"
	"repro/internal/pusch"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/timecache"
	"repro/internal/timing"
)

// mobileMixTrace is the property suite's fixed UE trace: the Table I
// use-case mix over roaming TDL-B UEs, drawn over the fleet-scale
// population so every cell count sees the same offered traffic.
func mobileMixTrace(t *testing.T, cells, jobs int) []sched.Job {
	t.Helper()
	base := sched.Mobile(tinyChain(), channel.TDLB, 30, 0)
	trace := MixedTrace(cells, sched.TableIMix(&base), jobs, 2, 1)
	if len(trace) != jobs {
		t.Fatalf("trace has %d jobs, want %d", len(trace), jobs)
	}
	return trace
}

// fleetBytes serves the trace and returns the JSONL stream.
func fleetBytes(t *testing.T, f *Fleet, jobs []sched.Job) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := f.WriteJSONL(&buf, jobs); err != nil {
		t.Fatalf("fleet serve: %v", err)
	}
	return buf.String()
}

// TestFleetByteIdenticalAcrossWorkers: the wire stream of a mobile UE
// trace is byte-identical across measurement worker counts {1,3,8},
// for single- and multi-cell fleets — the ISSUE's core replay
// property, on the real engine.
func TestFleetByteIdenticalAcrossWorkers(t *testing.T) {
	for _, cells := range []int{1, 3} {
		trace := mobileMixTrace(t, cells, 18)
		cfg := Config{Cells: Homogeneous(cells, Cell{Servers: 2}), Policy: SINRAware, Seed: 1}
		var ref string
		for _, workers := range []int{1, 3, 8} {
			cfg.Workers = workers
			got := fleetBytes(t, &Fleet{Cfg: cfg}, trace)
			if workers == 1 {
				ref = got
				continue
			}
			if got != ref {
				t.Fatalf("cells=%d: stream differs between workers=1 and workers=%d", cells, workers)
			}
		}
	}
}

// TestFleetDeterministicAcrossCellCounts: for one fixed UE trace,
// every fleet size replays identically run to run (the stream is a
// pure function of trace × fleet config), and each size conserves the
// offered traffic exactly.
func TestFleetDeterministicAcrossCellCounts(t *testing.T) {
	trace := mobileMixTrace(t, 3, 18)
	for cells := 1; cells <= 3; cells++ {
		cfg := Config{Cells: Homogeneous(cells, Cell{}), Policy: LeastQueue, Seed: 1, Workers: 4}
		first := fleetBytes(t, &Fleet{Cfg: cfg}, trace)
		second := fleetBytes(t, &Fleet{Cfg: cfg}, trace)
		if first != second {
			t.Fatalf("cells=%d: stream differs run to run", cells)
		}
		_, sum := (&Fleet{Cfg: cfg}).Serve(trace)
		checkConservation(t, sum)
		if sum.Jobs != len(trace) {
			t.Fatalf("cells=%d: %d jobs summarized, want %d", cells, sum.Jobs, len(trace))
		}
	}
}

// TestHandoverDeterminism: the cell-assignment sequence of a mobile
// trace is independent of measurement order (worker count) and follows
// the pure-function attachment prediction; UEs do hand over on a
// horizon longer than the gain periods.
func TestHandoverDeterminism(t *testing.T) {
	const cells = 3
	// One UE slot every 10 ms for 2 s: spans several CellGainDB
	// periods, so attachments must cross somewhere.
	var jobs []sched.Job
	for i := 0; i < 200; i++ {
		arrival := int64(i) * 10 * sched.CyclesPerMs
		jobs = append(jobs, stubUEJob(fmt.Sprintf("u%d", i), arrival, 100, uint64(1+i%4)))
	}
	cfg := Config{Cells: Homogeneous(cells, Cell{}), Policy: SINRAware}

	cfg.Workers = 1
	r1, sum1 := stubFleet(cfg).Serve(jobs)
	cfg.Workers = 8
	r8, sum8 := stubFleet(cfg).Serve(jobs)
	if !equalInts(assignments(r1), assignments(r8)) {
		t.Fatalf("assignment sequence differs between workers=1 and workers=8")
	}
	if sum1.Handovers != sum8.Handovers {
		t.Fatalf("handover count differs: %d vs %d", sum1.Handovers, sum8.Handovers)
	}
	if sum1.Handovers == 0 {
		t.Fatalf("no handovers over %d gain periods — mobility model inert", 2)
	}
	if sum1.MobileUEs != 4 {
		t.Fatalf("mobile UEs = %d, want 4", sum1.MobileUEs)
	}
	// Every admitted slot sits on the cell the pure gain function
	// attaches its UE to at its channel time (all cells admissible).
	for i, r := range r1 {
		job := jobs[i] // arrivals are strictly increasing, so order == input
		want := AttachedCell(job.Chain.Channel.Seed, cells, job.Chain.Channel.TimeMs)
		if r.Cell != want {
			t.Fatalf("job %d on cell %d, want attached cell %d", i, r.Cell, want)
		}
	}
}

// TestFleetCacheByteIdentical: serving through a fresh service-time
// cache and re-serving warm is byte-identical to the uncached run, and
// the warm pass never touches the engine — PR 6 composition.
func TestFleetCacheByteIdentical(t *testing.T) {
	trace := mobileMixTrace(t, 2, 12)
	mk := func(cache *timecache.Cache) *Fleet {
		return &Fleet{Cfg: Config{
			Cells: Homogeneous(2, Cell{}), Policy: RoundRobin,
			Seed: 1, Workers: 4, Cache: cache,
		}}
	}
	cold := fleetBytes(t, mk(nil), trace)
	cache := timecache.New(0)
	fresh := fleetBytes(t, mk(cache), trace)
	if fresh != cold {
		t.Fatalf("fresh-cache stream differs from uncached stream")
	}
	warmFleet := mk(cache)
	var buf bytes.Buffer
	sum, err := warmFleet.WriteJSONL(&buf, trace)
	if err != nil {
		t.Fatalf("warm serve: %v", err)
	}
	if buf.String() != cold {
		t.Fatalf("warm-cache stream differs from uncached stream")
	}
	if sum.Host == nil || sum.Host.CacheMisses != 0 || sum.Host.CacheHits == 0 {
		t.Fatalf("warm pass should be all hits, host stats %+v", sum.Host)
	}
}

// TestFleetAnalyticByteIdentical: an analytic-timing fleet (every cell
// predicting through the calibrated model) is byte-identical across
// worker counts and stamps the fleet summary — PR 7 composition.
func TestFleetAnalyticByteIdentical(t *testing.T) {
	model, err := timing.Load("../../testdata/calibration.json")
	if err != nil {
		t.Fatalf("loading committed calibration: %v", err)
	}
	base := pusch.ChainConfig{
		NSC: 64, NR: 16, NB: 8, NL: 4,
		NSymb: 6, NPilot: 2,
		Scheme: tinyChain().Scheme,
		SNRdB:  20,
	}
	base.Cluster = tinyChain().Cluster
	trace := Trace(2, base, 16, 2, 3)
	cfg := Config{
		Cells:  Homogeneous(2, Cell{Timing: pusch.TimingAnalytic}),
		Policy: LeastQueue, Seed: 1, Model: model,
	}
	cfg.Workers = 1
	ref := fleetBytes(t, &Fleet{Cfg: cfg}, trace)
	cfg.Workers = 8
	if got := fleetBytes(t, &Fleet{Cfg: cfg}, trace); got != ref {
		t.Fatalf("analytic stream differs between workers=1 and workers=8")
	}
	_, sum := (&Fleet{Cfg: cfg}).Serve(trace)
	if sum.Timing != string(pusch.TimingAnalytic) {
		t.Fatalf("fleet summary timing = %q, want analytic", sum.Timing)
	}
	for c, cs := range sum.PerCell {
		if cs.Served > 0 && cs.Timing != string(pusch.TimingAnalytic) {
			t.Fatalf("cell %d summary unstamped: %+v", c, cs)
		}
	}
}

// TestUEPopulationScalesWithFleet: the fleet trace draws from
// cells × DefaultUEPopulation distinct fading identities, so a bigger
// deployment sees proportionally more UEs (the PR's population fix).
func TestUEPopulationScalesWithFleet(t *testing.T) {
	base := sched.Mobile(tinyChain(), channel.TDLB, 30, 0)
	for _, cells := range []int{1, 3} {
		trace := Trace(cells, base, cells*sched.DefaultUEPopulation*2, 4, 9)
		seen := map[uint64]bool{}
		for _, j := range trace {
			seen[j.Chain.Channel.Seed] = true
		}
		want := cells * sched.DefaultUEPopulation
		if len(seen) != want {
			t.Fatalf("cells=%d: %d distinct UE identities, want %d", cells, len(seen), want)
		}
	}
}

// TestFleetWriteJSONLAcrossEncodeWindows: a 5k-job mobile analytic
// trace over a 3-cell SINR fleet — longer than one encode window —
// streams byte-identically at Workers 1, 2 and 8, and the record body
// equals one serial encoder's bytes.
func TestFleetWriteJSONLAcrossEncodeWindows(t *testing.T) {
	model, err := timing.Load("../../testdata/calibration.json")
	if err != nil {
		t.Fatalf("loading committed calibration: %v", err)
	}
	base := sched.Mobile(tinyChain(), channel.TDLB, 30, 0)
	base.NR, base.NB, base.NSymb = 16, 8, 6
	trace := MixedTrace(3, sched.TableIMix(&base), 5000, 8, 1)
	cfg := Config{
		Cells:  Homogeneous(3, Cell{Timing: pusch.TimingAnalytic}),
		Policy: SINRAware, Seed: 1, Model: model,
	}
	results, sum := (&Fleet{Cfg: cfg}).Serve(trace)
	if sum.Served < 4096 || sum.Cells != 3 {
		t.Fatalf("served %d jobs over %d cells; the stream must cross an encode window", sum.Served, sum.Cells)
	}
	var records bytes.Buffer
	enc := json.NewEncoder(&records)
	for i := range results {
		if results[i].Outcome == Served {
			if err := enc.Encode(&results[i].Record); err != nil {
				t.Fatal(err)
			}
		}
	}
	var ref string
	for _, workers := range []int{1, 2, 8} {
		cfg.Workers = workers
		got := fleetBytes(t, &Fleet{Cfg: cfg}, trace)
		if !strings.HasPrefix(got, records.String()) {
			t.Fatalf("workers=%d: record body differs from the serial encoding", workers)
		}
		if ref == "" {
			ref = got
		} else if got != ref {
			t.Fatalf("workers=%d: stream differs from workers=1", workers)
		}
	}
}

// TestReplayInvariantsRandomized drives the one replay loop with
// stubbed service times over random traces — shuffled input order,
// bursts of simultaneous arrivals, roaming UEs and jobs that fail in
// every cell — across cell counts {1,2,3}, every policy, queue depths
// {-1,0,2} and servers {1,3}. Every run must keep finish >= start >=
// arrival, conserve outcomes per cell and fleet-wide, have per-cell
// sums equal to the fleet totals, start each cell's jobs in FIFO order,
// and admit or drop each arrival as the cell's servers and queue
// capacity dictate.
func TestReplayInvariantsRandomized(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 17))
	for _, cells := range []int{1, 2, 3} {
		for _, policy := range Policies() {
			for _, queue := range []int{-1, 0, 2} {
				for _, servers := range []int{1, 3} {
					jobs := make([]sched.Job, 80)
					var at int64
					for i := range jobs {
						if rng.IntN(4) > 0 {
							at += rng.Int64N(400)
						}
						j := stubJob(fmt.Sprintf("j%d", i), at, 1+rng.Int64N(900))
						if rng.IntN(2) == 0 {
							j = stubUEJob(j.Name, at, int64(j.Chain.Seed), uint64(1+rng.IntN(6)))
						}
						if rng.IntN(10) == 0 {
							j.Chain.SNRdB = -1 // fails in every cell
						}
						jobs[i] = j
					}
					rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
					cfg := Config{
						Cells:  Homogeneous(cells, Cell{Servers: servers, QueueDepth: queue}),
						Policy: policy, Workers: 2,
					}
					results, sum := stubFleet(cfg).Serve(jobs)
					name := fmt.Sprintf("cells=%d/%s/queue=%d/servers=%d", cells, policy, queue, servers)
					checkReplayInvariants(t, name, len(jobs), results, sum)
					checkAdmissions(t, name, results, sched.NewLane(0, servers, queue, nil))
				}
			}
		}
	}
}

// checkReplayInvariants asserts the replay loop's invariants on one
// served trace (see TestReplayInvariantsRandomized).
func checkReplayInvariants(t *testing.T, name string, jobs int, results []sched.JobResult, sum report.FleetSummary) {
	t.Helper()
	if len(results) != jobs || sum.Jobs != jobs {
		t.Fatalf("%s: %d results, summary %d jobs, want %d", name, len(results), sum.Jobs, jobs)
	}
	checkConservation(t, sum)
	type tally struct{ jobs, served, dropped, failed int }
	perCell := make([]tally, sum.Cells)
	lastStart := make([]int64, sum.Cells)
	var prevArrival int64
	for pos, r := range results {
		if r.Job != pos || (pos > 0 && r.Arrival < prevArrival) {
			t.Fatalf("%s: result %d (job %d, arrival %d) out of arrival order", name, pos, r.Job, r.Arrival)
		}
		prevArrival = r.Arrival
		c := &perCell[r.Cell]
		c.jobs++
		switch r.Outcome {
		case sched.Served:
			c.served++
			rec := r.Record
			if rec.ArrivalCycle != r.Arrival || rec.StartCycle < rec.ArrivalCycle || rec.FinishCycle < rec.StartCycle ||
				rec.FinishCycle-rec.StartCycle != r.ServiceCycles || rec.Cell != r.Cell {
				t.Fatalf("%s: job %d scheduled %+v (service %d, cell %d)", name, pos, rec, r.ServiceCycles, r.Cell)
			}
			if rec.StartCycle < lastStart[r.Cell] {
				t.Fatalf("%s: job %d starts at %d on cell %d, before an earlier arrival's start %d (not FIFO)",
					name, pos, rec.StartCycle, r.Cell, lastStart[r.Cell])
			}
			lastStart[r.Cell] = rec.StartCycle
		case sched.Dropped:
			c.dropped++
		case sched.Failed:
			c.failed++
		default:
			t.Fatalf("%s: job %d has outcome %q", name, pos, r.Outcome)
		}
	}
	for i, c := range perCell {
		cs := sum.PerCell[i]
		if c.served+c.dropped+c.failed != c.jobs ||
			c != (tally{cs.Jobs, cs.Served, cs.Dropped, cs.Failed}) {
			t.Fatalf("%s: cell %d results %+v, summary %d jobs = %d served + %d dropped + %d failed",
				name, i, c, cs.Jobs, cs.Served, cs.Dropped, cs.Failed)
		}
	}
}

// checkAdmissions reconstructs each cell's busy servers and waiting
// jobs at every arrival from the served records, and checks the G/D/c/K
// admission rule: a job starts at its arrival only onto a free server
// with nobody waiting, waits only behind busy servers or earlier
// waiters in a queue below capacity, and is dropped only by a full
// queue.
func checkAdmissions(t *testing.T, name string, results []sched.JobResult, lane sched.Lane) {
	t.Helper()
	for pos, r := range results {
		if r.Outcome == sched.Failed {
			continue
		}
		busy, waiting := 0, 0
		for _, e := range results[:pos] {
			if e.Cell != r.Cell || e.Outcome != sched.Served {
				continue
			}
			switch rec := e.Record; {
			case rec.StartCycle > r.Arrival:
				waiting++
			case rec.FinishCycle > r.Arrival:
				busy++
			}
		}
		full := busy == lane.Servers || waiting > 0
		var ok bool
		switch {
		case r.Outcome == sched.Dropped:
			ok = full && waiting == lane.QueueCap
		case r.Record.StartCycle == r.Arrival:
			ok = !full
		default:
			ok = full && waiting < lane.QueueCap
		}
		if !ok {
			t.Fatalf("%s: job %d %s (start %d, arrival %d) with %d busy of %d servers, %d waiting of %d",
				name, pos, r.Outcome, r.Record.StartCycle, r.Arrival, busy, lane.Servers, waiting, lane.QueueCap)
		}
	}
}

package fleet

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/channel"
	"repro/internal/engine"
	"repro/internal/pusch"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/timecache"
	"repro/internal/timing"
	"repro/internal/waveform"
)

// tinyChain is a minimal valid chain configuration so tests that
// actually run the simulator stay fast (sched's test slot).
func tinyChain() pusch.ChainConfig {
	return pusch.ChainConfig{
		Cluster: arch.MemPool(),
		NSC:     64, NR: 4, NB: 4, NL: 1,
		NSymb: 3, NPilot: 2,
		Scheme: waveform.QPSK,
		SNRdB:  20,
	}
}

// stubFleet returns a fleet whose measurement is synthetic: service
// time = cfg.Seed cycles, payload 1000 bits, and an error whenever
// SNRdB < 0 — sched's stub, so routing and queueing are probed with
// chosen service times.
func stubFleet(cfg Config) *Fleet {
	return &Fleet{
		Cfg: cfg,
		measure: func(_ *engine.Machines, c pusch.ChainConfig) (report.SlotRecord, error) {
			if c.SNRdB < 0 {
				return report.SlotRecord{}, fmt.Errorf("stub: bad job")
			}
			return report.SlotRecord{
				Kind:        "chain",
				TotalCycles: int64(c.Seed),
				PayloadBits: 1000,
			}, nil
		},
	}
}

// stubJob builds a job with the given arrival and synthetic service
// time (carried in the chain seed, see stubFleet).
func stubJob(name string, arrival, service int64) sched.Job {
	return sched.Job{Name: name, Arrival: arrival, Chain: pusch.ChainConfig{Seed: uint64(service)}}
}

// stubUEJob is stubJob for a mobile UE: the fading seed identifies the
// UE to the router, the channel time is its clock.
func stubUEJob(name string, arrival, service int64, ue uint64) sched.Job {
	j := stubJob(name, arrival, service)
	j.Chain.Channel.Seed = ue
	j.Chain.Channel.TimeMs = float64(arrival) / sched.CyclesPerMs
	return j
}

// assignments extracts the per-job routed cell, in arrival order.
func assignments(results []sched.JobResult) []int {
	cells := make([]int, len(results))
	for i := range results {
		cells[i] = results[i].Cell
	}
	return cells
}

func TestRoundRobinExactRotation(t *testing.T) {
	f := stubFleet(Config{
		Cells:   Homogeneous(3, Cell{}),
		Policy:  RoundRobin,
		Workers: 1,
	})
	var jobs []sched.Job
	for i := 0; i < 9; i++ {
		jobs = append(jobs, stubJob(fmt.Sprintf("j%d", i), int64(i)*1000, 10))
	}
	results, sum := f.Serve(jobs)
	for i := range results {
		if results[i].Cell != i%3 {
			t.Fatalf("job %d routed to cell %d, want %d (exact rotation)", i, results[i].Cell, i%3)
		}
	}
	if sum.Served != 9 || sum.Dropped != 0 {
		t.Fatalf("summary %+v", sum)
	}
	for c, cs := range sum.PerCell {
		if cs.Served != 3 {
			t.Fatalf("cell %d served %d, want 3", c, cs.Served)
		}
	}
}

func TestLeastQueueDeterministicTieBreak(t *testing.T) {
	f := stubFleet(Config{
		Cells:   Homogeneous(2, Cell{}),
		Policy:  LeastQueue,
		Workers: 1,
	})
	jobs := []sched.Job{
		stubJob("a", 0, 1000),  // tie at 0/0 -> cell 0, busy until 1000
		stubJob("b", 10, 1000), // loads 1/0 -> cell 1, busy until 1010
		stubJob("c", 20, 10),   // tie at 1/1 -> cell 0 (lowest index), queued
		stubJob("d", 2000, 10), // all free -> tie -> cell 0
		stubJob("e", 2000, 10), // cell 0 busy -> cell 1
	}
	results, _ := f.Serve(jobs)
	want := []int{0, 1, 0, 0, 1}
	if got := assignments(results); !equalInts(got, want) {
		t.Fatalf("least-queue assignments %v, want %v", got, want)
	}
	// c queued behind a: starts when a finishes.
	if r := results[2]; r.Record.StartCycle != 1000 || r.Record.WaitCycles != 980 {
		t.Fatalf("queued job c scheduled %+v", r.Record)
	}
}

func TestSINRAwarePicksMaxAdmissibleCell(t *testing.T) {
	const ue = uint64(0xfeed)
	const tMs = 0.5
	arrival := int64(tMs * sched.CyclesPerMs)

	// Hand-built 3-cell scenario: all cells admissible first.
	f := stubFleet(Config{
		Cells:   Homogeneous(3, Cell{}),
		Policy:  SINRAware,
		Workers: 1,
	})
	job := stubUEJob("u", arrival, 10, ue)
	results, _ := f.Serve([]sched.Job{job})
	want := AttachedCell(ue, 3, tMs)
	if results[0].Cell != want {
		t.Fatalf("SINR routed UE to cell %d, want gain argmax %d", results[0].Cell, want)
	}

	// Now make the argmax cell inadmissible: its serving class is
	// analytic with no model loaded, so every measurement under it
	// fails and the router must fall back to the best admissible cell.
	cells := Homogeneous(3, Cell{})
	cells[want].Timing = pusch.TimingAnalytic
	f = stubFleet(Config{Cells: cells, Policy: SINRAware, Workers: 1})
	results, _ = f.Serve([]sched.Job{job})
	got := results[0].Cell
	if got == want {
		t.Fatalf("SINR routed UE to inadmissible cell %d", got)
	}
	if results[0].Outcome != sched.Served {
		t.Fatalf("outcome %s, want served on an admissible cell", results[0].Outcome)
	}
	// The fallback is the argmax over the two remaining cells.
	bestGain, best := -1e300, -1
	for c := 0; c < 3; c++ {
		if c == want {
			continue
		}
		if g := CellGainDB(ue, c, tMs); g > bestGain {
			bestGain, best = g, c
		}
	}
	if got != best {
		t.Fatalf("SINR fallback cell %d, want admissible argmax %d", got, best)
	}

	// No admissible cell anywhere: the job fails deterministically.
	all := Homogeneous(3, Cell{Timing: pusch.TimingAnalytic})
	f = stubFleet(Config{Cells: all, Policy: SINRAware, Workers: 1})
	results, sum := f.Serve([]sched.Job{job})
	if results[0].Outcome != sched.Failed || sum.Failed != 1 {
		t.Fatalf("want failed job with no admissible cell, got %+v", results[0])
	}
}

// TestPoliciesTableDriven serves one mobile overload trace under every
// policy: each run must be deterministic (identical assignment
// sequence on a re-serve) and conserve traffic per cell and fleet-wide.
func TestPoliciesTableDriven(t *testing.T) {
	var jobs []sched.Job
	for i := 0; i < 40; i++ {
		j := stubUEJob(fmt.Sprintf("j%d", i), int64(i)*40, 500, uint64(1+i%5))
		if i == 7 {
			j.Chain.SNRdB = -1 // fails in every cell
		}
		jobs = append(jobs, j)
	}
	for _, policy := range Policies() {
		t.Run(string(policy), func(t *testing.T) {
			cfg := Config{Cells: Homogeneous(3, Cell{QueueDepth: 1}), Policy: policy, Workers: 1}
			first, sum := stubFleet(cfg).Serve(jobs)
			second, _ := stubFleet(cfg).Serve(jobs)
			if !equalInts(assignments(first), assignments(second)) {
				t.Fatalf("%s assignments differ across runs", policy)
			}
			checkConservation(t, sum)
			if sum.Failed != 1 {
				t.Fatalf("%s failed = %d, want 1", policy, sum.Failed)
			}
			if policy != SINRAware && sum.Dropped == 0 {
				t.Fatalf("%s: overload trace should drop with queue depth 1", policy)
			}
		})
	}
}

// checkConservation asserts the fleet invariant: served + dropped +
// failed == offered jobs, per-cell counters sum to the fleet's, and
// offered bits split exactly into served and dropped payload.
func checkConservation(t *testing.T, sum report.FleetSummary) {
	t.Helper()
	if sum.Served+sum.Dropped+sum.Failed != sum.Jobs {
		t.Fatalf("fleet outcomes %d+%d+%d != %d jobs", sum.Served, sum.Dropped, sum.Failed, sum.Jobs)
	}
	var jobs, served, dropped, failed int
	var offered, servedBits int64
	for _, cs := range sum.PerCell {
		jobs += cs.Jobs
		served += cs.Served
		dropped += cs.Dropped
		failed += cs.Failed
		offered += cs.OfferedBits
		servedBits += cs.ServedBits
	}
	if jobs != sum.Jobs || served != sum.Served || dropped != sum.Dropped || failed != sum.Failed {
		t.Fatalf("per-cell sums (%d/%d/%d/%d) != fleet (%d/%d/%d/%d)",
			jobs, served, dropped, failed, sum.Jobs, sum.Served, sum.Dropped, sum.Failed)
	}
	if offered != sum.OfferedBits || servedBits != sum.ServedBits {
		t.Fatalf("per-cell bits (%d/%d) != fleet (%d/%d)", offered, servedBits, sum.OfferedBits, sum.ServedBits)
	}
	if sum.OfferedBits < sum.ServedBits {
		t.Fatalf("served %d bits exceeds offered %d", sum.ServedBits, sum.OfferedBits)
	}
}

// TestSingleCellFleetMatchesScheduler: the degenerate fleet's wire
// stream is byte-identical to the plain scheduler's on the same mobile
// trace, real engine and all — the benchgate fleet gate's invariant —
// across service disciplines and through the analytic model and the
// service-time cache.
func TestSingleCellFleetMatchesScheduler(t *testing.T) {
	base := sched.Mobile(tinyChain(), channel.TDLB, 30, 0)
	jobs := sched.PoissonTrace(base, 10, 2, 7)
	// The fast-path row pins every other job to the analytic model and
	// serves the rest through a cache the scheduler fills and the fleet
	// then hits.
	mixed := append([]sched.Job(nil), jobs...)
	for i := range mixed {
		if i%2 == 0 {
			mixed[i].Chain.Timing = pusch.TimingAnalytic
		}
	}
	model, err := timing.Load("../../testdata/calibration.json")
	if err != nil {
		t.Fatalf("loading committed calibration: %v", err)
	}

	for _, tc := range []struct {
		name           string
		servers, queue int
		fastPaths      bool
	}{
		{name: "servers=2", servers: 2},
		{name: "servers=1/queue=-1", servers: 1, queue: -1},
		{name: "servers=1/queue=0", servers: 1, queue: 0},
		{name: "servers=1/queue=2", servers: 1, queue: 2},
		{name: "servers=3/queue=-1", servers: 3, queue: -1},
		{name: "servers=3/queue=0", servers: 3, queue: 0},
		{name: "servers=3/queue=2", servers: 3, queue: 2},
		{name: "analytic+cache", servers: 1, queue: 2, fastPaths: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trace := jobs
			var cache *timecache.Cache
			var mdl *timing.Model
			if tc.fastPaths {
				trace, cache, mdl = mixed, timecache.New(0), model
			}
			var plain bytes.Buffer
			s := &sched.Scheduler{Cfg: sched.Config{
				Servers: tc.servers, QueueDepth: tc.queue, Seed: 1, Workers: 2, Cache: cache, Model: mdl,
			}}
			if _, err := s.WriteJSONL(&plain, trace); err != nil {
				t.Fatalf("scheduler serve: %v", err)
			}

			var fleet bytes.Buffer
			f := &Fleet{Cfg: Config{
				Cells: []Cell{{Servers: tc.servers, QueueDepth: tc.queue}}, Seed: 1, Workers: 2, Cache: cache, Model: mdl,
			}}
			sum, err := f.WriteJSONL(&fleet, trace)
			if err != nil {
				t.Fatalf("fleet serve: %v", err)
			}
			if plain.String() != fleet.String() {
				t.Fatalf("1-cell fleet stream differs from scheduler stream:\n--- scheduler\n%s--- fleet\n%s", plain.String(), fleet.String())
			}
			if strings.Contains(fleet.String(), "fleet-summary") {
				t.Fatalf("degenerate fleet emitted a fleet-summary line")
			}
			if sum.Cells != 1 || len(sum.PerCell) != 1 {
				t.Fatalf("fleet summary %+v", sum)
			}
			if tc.fastPaths {
				if !strings.Contains(fleet.String(), `"timing":"analytic"`) {
					t.Fatalf("analytic jobs were not served from the model")
				}
				if sum.Host.CacheMisses != 0 || sum.Host.CacheHits == 0 {
					t.Fatalf("fleet serve should hit the cache the scheduler filled: %+v", sum.Host)
				}
			}
		})
	}
}

func TestCellSpecParsing(t *testing.T) {
	def := Cell{Servers: 2}
	cfg := strings.NewReader(`[
		{"name": "macro", "cluster": "terapool", "layout": "pipe", "servers": 4},
		{"name": "pico", "timing": "analytic", "queue": -1},
		{}
	]`)
	cells, err := ReadCells(cfg, def)
	if err != nil {
		t.Fatalf("ReadCells: %v", err)
	}
	if len(cells) != 3 {
		t.Fatalf("got %d cells, want 3", len(cells))
	}
	if cells[0].Name != "macro" || cells[0].Cluster == nil || !cells[0].Layout.Pipelined() || cells[0].Servers != 4 {
		t.Fatalf("cell 0 %+v", cells[0])
	}
	if cells[1].Timing != pusch.TimingAnalytic || cells[1].QueueDepth != -1 || cells[1].Servers != 2 {
		t.Fatalf("cell 1 %+v (queue -1 and inherited servers expected)", cells[1])
	}
	if cells[2].Servers != def.Servers || cells[2].Cluster != nil || cells[2].Layout.Pipelined() || cells[2].Timing != def.Timing {
		t.Fatalf("empty spec should inherit the default cell, got %+v", cells[2])
	}

	if _, err := ReadCells(strings.NewReader(`[]`), def); err == nil {
		t.Fatalf("empty cell config should fail")
	}
	if _, err := ReadCells(strings.NewReader(`[{"cluster": "nope"}]`), def); err == nil {
		t.Fatalf("unknown cluster should fail")
	}
	if _, err := ReadCells(strings.NewReader(`[{"timing": "psychic"}]`), def); err == nil {
		t.Fatalf("unknown timing mode should fail")
	}
}

func TestParsePolicy(t *testing.T) {
	for name, want := range map[string]Policy{
		"":            RoundRobin,
		"rr":          RoundRobin,
		"round-robin": RoundRobin,
		"least":       LeastQueue,
		"least-queue": LeastQueue,
		"sinr":        SINRAware,
		"SINR-Aware":  SINRAware,
	} {
		got, err := ParsePolicy(name)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParsePolicy("random"); err == nil {
		t.Fatalf("unknown policy should fail")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestHostileArrivalsFail: an arrival beyond sched.MaxArrival (which
// used to overflow finish_cycle) and a negative arrival both fail
// before measurement, with a reason naming the bound, through the plain
// scheduler and through a 2-cell SINR fleet — and no record or summary
// carries a negative cycle count.
func TestHostileArrivalsFail(t *testing.T) {
	jobs, err := sched.ReadJobs(strings.NewReader("{\"arrival_cycle\":9223372036854775807}\n{\"arrival_cycle\":-5}\n"), tinyChain())
	if err != nil {
		t.Fatalf("ReadJobs: %v", err)
	}
	check := func(t *testing.T, stream string, results []sched.JobResult) {
		t.Helper()
		for _, r := range results {
			if r.Outcome != sched.Failed || !strings.Contains(r.Error, strconv.FormatInt(sched.MaxArrival, 10)) {
				t.Fatalf("job %d (arrival %d): outcome %s, error %q; want failed naming the bound", r.Job, r.Arrival, r.Outcome, r.Error)
			}
		}
		for _, field := range []string{`"finish_cycle":-`, `"horizon_cycles":-`} {
			if strings.Contains(stream, field) {
				t.Fatalf("stream carries %s...:\n%s", field, stream)
			}
		}
	}
	t.Run("scheduler", func(t *testing.T) {
		s := &sched.Scheduler{Cfg: sched.Config{Workers: 1}}
		results, sum := s.Serve(jobs)
		var buf bytes.Buffer
		if _, err := s.WriteJSONL(&buf, jobs); err != nil {
			t.Fatalf("serve: %v", err)
		}
		check(t, buf.String(), results)
		if sum.Failed != 2 || sum.HorizonCycles != 0 {
			t.Fatalf("summary %+v, want 2 failed over an empty horizon", sum)
		}
	})
	t.Run("fleet", func(t *testing.T) {
		f := &Fleet{Cfg: Config{Cells: Homogeneous(2, Cell{}), Policy: SINRAware, Workers: 1}}
		results, sum := f.Serve(jobs)
		var buf bytes.Buffer
		if _, err := f.WriteJSONL(&buf, jobs); err != nil {
			t.Fatalf("serve: %v", err)
		}
		check(t, buf.String(), results)
		checkConservation(t, sum)
		if sum.Failed != 2 || sum.HorizonCycles != 0 {
			t.Fatalf("summary %+v, want 2 failed over an empty horizon", sum)
		}
	})
}

package engine

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/fixed"
)

// runOn executes fn as a single phase on the given cores and returns the
// machine for inspection.
func runOn(t *testing.T, cfg *arch.Config, cores []int, fn func(p *Proc)) *Machine {
	t.Helper()
	m := NewMachine(cfg)
	job := Job{Name: "t", Cores: cores, Phases: []Phase{{Name: "p", Work: fn}}}
	if err := m.Run(job); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTickAdvances(t *testing.T) {
	m := runOn(t, arch.MemPool(), []int{0}, func(p *Proc) {
		p.Tick(5)
	})
	s := m.CoreStats(0)
	if s.Instrs != 5 || s.IAlu != 5 {
		t.Errorf("stats = %+v, want 5 instrs", s)
	}
	// Single-core job: no barrier, so time advances exactly by the work
	// plus the icache refill.
	wantTime := int64(5) + int64(DefaultKernelLines)*m.Cfg.ICache.RefillLatency
	if m.CoreTime(0) != wantTime {
		t.Errorf("core time = %d, want %d", m.CoreTime(0), wantTime)
	}
	if s.ICacheStalls != int64(DefaultKernelLines)*m.Cfg.ICache.RefillLatency {
		t.Errorf("icache stalls = %d", s.ICacheStalls)
	}
}

func TestLoadLatencies(t *testing.T) {
	cfg := arch.MemPool()
	// Core 0 is in tile 0 (group 0). Pick one address per level.
	local := cfg.TileLocalAddr(0, 0, 0)
	group := cfg.TileLocalAddr(1, 0, 0)
	remote := cfg.TileLocalAddr(cfg.TilesPerGroup, 0, 0)
	type obs struct{ local, group, remote int64 }
	var got obs
	runOn(t, cfg, []int{0}, func(p *Proc) {
		start := p.Now()
		w := p.Load(local)
		got.local = w.At - start
		start = p.Now()
		w = p.Load(group)
		got.group = w.At - start
		start = p.Now()
		w = p.Load(remote)
		got.remote = w.At - start
	})
	if got.local != 1 || got.group != 3 || got.remote != 5 {
		t.Errorf("load latencies = %+v, want 1/3/5", got)
	}
}

func TestLoadUseStallIsLSU(t *testing.T) {
	cfg := arch.MemPool()
	remote := cfg.TileLocalAddr(cfg.TilesPerGroup, 0, 0)
	m := runOn(t, cfg, []int{0}, func(p *Proc) {
		w := p.Load(remote) // data at issue+5
		p.CAdd(w, w)        // issues at +1, needs data at +5: 4 stall cycles
	})
	if s := m.CoreStats(0); s.LsuStalls != 4 {
		t.Errorf("lsu stalls = %d, want 4 (load-use wait)", s.LsuStalls)
	}
}

func TestMulUseStallIsRAW(t *testing.T) {
	m := runOn(t, arch.MemPool(), []int{0}, func(p *Proc) {
		a := p.Imm(fixed.Pack(100, 0))
		b := p.Imm(fixed.Pack(200, 0))
		prod := p.CMul(a, b) // result at issue+MulLatency
		p.CAdd(prod, prod)   // consumes immediately: MulLatency-1 RAW stalls
	})
	want := arch.MemPool().MulLatency - 1
	if s := m.CoreStats(0); s.RawStalls != want {
		t.Errorf("raw stalls = %d, want %d (mul-use wait)", s.RawStalls, want)
	}
}

func TestIndependentLoadsHideLatency(t *testing.T) {
	cfg := arch.MemPool()
	m := NewMachine(cfg)
	base, err := m.Mem.AllocSeq(64)
	if err != nil {
		t.Fatal(err)
	}
	err = m.Run(Job{Name: "t", Cores: []int{0}, Phases: []Phase{{Name: "p", Work: func(p *Proc) {
		// 8 independent loads back-to-back: issue 8 cycles, the LSU hides
		// the individual latencies.
		ws := make([]W, 8)
		for i := range ws {
			ws[i] = p.Load(base + arch.Addr(i))
		}
		for i := range ws {
			_ = p.CAdd(ws[i], ws[i])
		}
	}}}})
	if err != nil {
		t.Fatal(err)
	}
	s := m.CoreStats(0)
	// All loads are non-local (sequential data spreads over the cluster),
	// but issuing 8 loads takes 8 cycles, by which time the first results
	// have arrived: RAW stalls must be far below 8 loads x 5 cycles.
	if s.RawStalls > 8 {
		t.Errorf("raw stalls = %d, want small (latency hidden by LSU)", s.RawStalls)
	}
}

func TestLSUDepthLimit(t *testing.T) {
	cfg := arch.MemPool()
	cfg.LSUDepth = 2
	remote := cfg.TileLocalAddr(cfg.TilesPerGroup, 0, 0)
	m := runOn(t, cfg, []int{0}, func(p *Proc) {
		// Three loads to remote banks with only 2 LSU slots: the third
		// must wait for the first to retire.
		p.Load(remote)
		p.Load(remote + 1)
		p.Load(remote + 2)
	})
	if s := m.CoreStats(0); s.LsuStalls == 0 {
		t.Error("expected LSU stalls with depth 2 and 3 remote loads")
	}
}

func TestBankConflictSerializes(t *testing.T) {
	cfg := arch.MemPool()
	m := NewMachine(cfg)
	// Two cores in different tiles load the same bank at the same time.
	target := cfg.TileLocalAddr(2, 0, 0)
	var at [2]int64
	err := m.Run(Job{Name: "t", Cores: []int{0, 4}, Phases: []Phase{{Name: "p", Work: func(p *Proc) {
		w := p.Load(target)
		at[p.Lane] = w.At - p.Now() + 1 // latency including issue
	}}}})
	if err != nil {
		t.Fatal(err)
	}
	if at[0] == at[1] {
		t.Errorf("conflicting accesses not serialized: latencies %v", at)
	}
	if m.Mem.Res.ConflictCycles() == 0 {
		t.Error("no conflict cycles recorded")
	}
}

func TestNoConflictOnDistinctBanks(t *testing.T) {
	cfg := arch.MemPool()
	m := NewMachine(cfg)
	err := m.Run(Job{Name: "t", Cores: []int{0, 4}, Phases: []Phase{{Name: "p", Work: func(p *Proc) {
		// Each core loads from its own tile: distinct banks.
		tile := p.Config().TileOfCore(p.Core)
		p.Load(p.Config().TileLocalAddr(tile, 0, 0))
	}}}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Mem.Res.ConflictCycles() != 0 {
		t.Errorf("unexpected conflicts: %d cycles", m.Mem.Res.ConflictCycles())
	}
}

func TestBarrierAlignsCores(t *testing.T) {
	cfg := arch.MemPool()
	m := NewMachine(cfg)
	// One core per tile, so each pays its own I$ refill and the WFI skew
	// reflects only the imbalanced work.
	cores := []int{0, 4, 8, 12}
	err := m.Run(Job{Name: "t", Cores: cores, Phases: []Phase{{Name: "p", Work: func(p *Proc) {
		p.Tick((p.Lane + 1) * 10) // imbalanced work
	}}}})
	if err != nil {
		t.Fatal(err)
	}
	t0 := m.CoreTime(0)
	for _, c := range cores {
		if m.CoreTime(c) != t0 {
			t.Errorf("core %d time %d != core 0 time %d after barrier", c, m.CoreTime(c), t0)
		}
	}
	// The fastest core (lane 0) waits for the slowest: at least 30 cycles
	// of WFI difference between them.
	w0 := m.CoreStats(cores[0]).WfiStalls
	w3 := m.CoreStats(cores[3]).WfiStalls
	if w0-w3 < 25 {
		t.Errorf("WFI stalls: fast core %d, slow core %d; want difference near 30", w0, w3)
	}
}

func TestSingleCoreJobSkipsBarrier(t *testing.T) {
	m := runOn(t, arch.MemPool(), []int{3}, func(p *Proc) { p.Tick(1) })
	if s := m.CoreStats(3); s.WfiStalls != 0 {
		t.Errorf("single-core job has WFI stalls: %d", s.WfiStalls)
	}
}

func TestStatsAccounting(t *testing.T) {
	// Every cycle in the window must be attributed: instrs + stalls ==
	// elapsed time per core (multi-core job with barrier).
	cfg := arch.MemPool()
	m := NewMachine(cfg)
	base, err := m.Mem.AllocSeq(1024)
	if err != nil {
		t.Fatal(err)
	}
	cores := []int{0, 1, 2, 3, 4, 5, 6, 7}
	err = m.Run(Job{Name: "t", Cores: cores, Phases: []Phase{{Name: "p", Work: func(p *Proc) {
		acc := A{}
		for i := 0; i < 20; i++ {
			a := p.Load(base + arch.Addr(p.Lane*20+i))
			acc = p.Mac(acc, a, a)
		}
		p.Store(base+arch.Addr(512+p.Lane), p.Narrow(acc, 5))
	}}}})
	if err != nil {
		t.Fatal(err)
	}
	end := m.CoreTime(0)
	for _, c := range cores {
		s := m.CoreStats(c)
		if s.Busy() != end {
			t.Errorf("core %d: attributed %d cycles, elapsed %d", c, s.Busy(), end)
		}
	}
}

func TestDivUnitNotPipelined(t *testing.T) {
	m := runOn(t, arch.MemPool(), []int{0}, func(p *Proc) {
		acc := p.Widen(p.Imm(fixed.Pack(1000, 0)))
		den := p.Imm(fixed.Pack(2000, 0))
		p.DivByRe(acc, den) // two divisions back to back
	})
	s := m.CoreStats(0)
	if s.Divs != 2 {
		t.Errorf("divs = %d, want 2", s.Divs)
	}
	// The second division waits for the initiation interval of the first.
	want := m.Cfg.DivSqrt.Init - 1
	if s.ExtStalls != want {
		t.Errorf("ext stalls = %d, want %d", s.ExtStalls, want)
	}
}

func TestSqrtValue(t *testing.T) {
	var got W
	runOn(t, arch.MemPool(), []int{0}, func(p *Proc) {
		// 0.25 in Q2.30 -> sqrt = 0.5.
		got = p.SqrtRe(A{Acc: fixed.Acc{Re: fixed.OneQ30 / 4}})
	})
	if f := fixed.Q15ToFloat(got.B.Re()); f < 0.499 || f > 0.501 {
		t.Errorf("sqrt(0.25) = %g, want 0.5", f)
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	cfg := arch.MemPool()
	m := NewMachine(cfg)
	base, err := m.Mem.AllocSeq(16)
	if err != nil {
		t.Fatal(err)
	}
	want := fixed.Pack(123, -456)
	err = m.Run(Job{Name: "t", Cores: []int{0}, Phases: []Phase{{Name: "p", Work: func(p *Proc) {
		p.Store(base, p.Imm(want))
		got := p.Load(base)
		if got.B != want {
			t.Errorf("loaded %v, want %v", got.B, want)
		}
	}}}})
	if err != nil {
		t.Fatal(err)
	}
	if fixed.C15(m.Mem.Read(base)) != want {
		t.Error("store did not reach memory")
	}
}

func TestICacheSharedWithinTile(t *testing.T) {
	cfg := arch.MemPool()
	m := NewMachine(cfg)
	// Cores 0 and 1 share tile 0: only the first pays the refill.
	err := m.Run(Job{Name: "t", Cores: []int{0, 1}, Phases: []Phase{{Name: "p", Work: func(p *Proc) { p.Tick(1) }}}})
	if err != nil {
		t.Fatal(err)
	}
	if m.CoreStats(0).ICacheStalls == 0 {
		t.Error("first core of tile paid no refill")
	}
	if m.CoreStats(1).ICacheStalls != 0 {
		t.Error("second core of tile paid a refill")
	}
}

func TestICacheLRUEviction(t *testing.T) {
	cfg := arch.MemPool()
	cfg.ICache.LinesPerTile = 16
	m := NewMachine(cfg)
	mk := func(name string) Phase {
		return Phase{Name: name, Kernel: name, Lines: 8, Work: func(p *Proc) { p.Tick(1) }}
	}
	// k1 and k2 fill the cache; k3 evicts k1; re-running k1 pays again.
	err := m.Run(Job{Name: "t", Cores: []int{0}, Phases: []Phase{mk("k1"), mk("k2"), mk("k3"), mk("k1")}})
	if err != nil {
		t.Fatal(err)
	}
	want := 4 * 8 * cfg.ICache.RefillLatency
	if got := m.CoreStats(0).ICacheStalls; got != want {
		t.Errorf("icache stalls = %d, want %d (4 refills)", got, want)
	}
	// Re-running k1 while still resident pays nothing.
	pre := m.CoreStats(0).ICacheStalls
	if err := m.Run(Job{Name: "t", Cores: []int{0}, Phases: []Phase{mk("k1")}}); err != nil {
		t.Fatal(err)
	}
	if got := m.CoreStats(0).ICacheStalls; got != pre {
		t.Errorf("resident kernel paid a refill: %d -> %d", pre, got)
	}
}

func TestRunValidation(t *testing.T) {
	m := NewMachine(arch.MemPool())
	noop := []Phase{{Name: "p", Work: func(p *Proc) {}}}
	if err := m.Run(Job{Name: "a", Cores: nil, Phases: noop}); err == nil {
		t.Error("empty core set accepted")
	}
	if err := m.Run(Job{Name: "a", Cores: []int{-1}, Phases: noop}); err == nil {
		t.Error("negative core accepted")
	}
	if err := m.Run(Job{Name: "a", Cores: []int{1 << 20}, Phases: noop}); err == nil {
		t.Error("out-of-range core accepted")
	}
	err := m.Run(
		Job{Name: "a", Cores: []int{0, 1}, Phases: noop},
		Job{Name: "b", Cores: []int{1, 2}, Phases: noop},
	)
	if err == nil || !strings.Contains(err.Error(), "claimed by both") {
		t.Errorf("overlapping jobs not rejected: %v", err)
	}
}

func TestRaceDetector(t *testing.T) {
	cfg := arch.MemPool()
	m := NewMachine(cfg)
	m.DebugRaces = true
	base, err := m.Mem.AllocSeq(4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("conflicting writes in one phase not detected")
		}
	}()
	_ = m.Run(Job{Name: "t", Cores: []int{0, 1}, Phases: []Phase{{Name: "p", Work: func(p *Proc) {
		p.Store(base, p.Imm(0)) // both cores write the same word
	}}}})
}

func TestRaceDetectorAllowsDisjoint(t *testing.T) {
	cfg := arch.MemPool()
	m := NewMachine(cfg)
	m.DebugRaces = true
	base, err := m.Mem.AllocSeq(8)
	if err != nil {
		t.Fatal(err)
	}
	err = m.Run(Job{Name: "t", Cores: []int{0, 1}, Phases: []Phase{{Name: "p", Work: func(p *Proc) {
		p.Store(base+arch.Addr(p.Lane), p.Imm(0))
	}}}})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWakeCostSelection(t *testing.T) {
	cfg := arch.MemPool()
	m := NewMachine(cfg)
	all := make([]int, cfg.NumCores())
	for i := range all {
		all[i] = i
	}
	if got := m.wakeCost(all); got != cfg.Wake.Cluster {
		t.Errorf("cluster wake = %d, want %d", got, cfg.Wake.Cluster)
	}
	// One whole group (cores 0..63 on MemPool).
	grp := all[:cfg.CoresPerTile*cfg.TilesPerGroup]
	if got := m.wakeCost(grp); got != cfg.Wake.Group {
		t.Errorf("group wake = %d, want %d", got, cfg.Wake.Group)
	}
	// Two whole tiles in one group.
	tiles := all[:2*cfg.CoresPerTile]
	if got := m.wakeCost(tiles); got != cfg.Wake.Tile {
		t.Errorf("tile wake = %d, want %d (one group mask)", got, cfg.Wake.Tile)
	}
	// Ragged subset.
	ragged := []int{0, 5, 9}
	if got := m.wakeCost(ragged); got != 3*cfg.Wake.Core {
		t.Errorf("ragged wake = %d, want %d", got, 3*cfg.Wake.Core)
	}
}

func TestClusterBarrier(t *testing.T) {
	cfg := arch.MemPool()
	m := NewMachine(cfg)
	if err := m.Run(Job{Name: "t", Cores: []int{0}, Phases: []Phase{{Name: "p", Work: func(p *Proc) { p.Tick(100) }}}}); err != nil {
		t.Fatal(err)
	}
	m.ClusterBarrier()
	t0 := m.CoreTime(0)
	for c := 0; c < cfg.NumCores(); c++ {
		if m.CoreTime(c) != t0 {
			t.Fatalf("core %d not aligned after cluster barrier", c)
		}
	}
	// Idle cores carry the wait as WFI.
	if m.CoreStats(100).WfiStalls == 0 {
		t.Error("idle core has no WFI after cluster barrier")
	}
}

func TestReportIPCAndBreakdown(t *testing.T) {
	cfg := arch.MemPool()
	m := NewMachine(cfg)
	mark := m.Mark()
	if err := m.Run(Job{Name: "t", Cores: []int{0}, Phases: []Phase{{Name: "p", Work: func(p *Proc) { p.Tick(80) }}}}); err != nil {
		t.Fatal(err)
	}
	rep := m.ReportSince(mark, "tick", []int{0})
	if rep.Stats.Instrs != 80 {
		t.Errorf("instrs = %d", rep.Stats.Instrs)
	}
	if rep.Wall != m.CoreTime(0) {
		t.Errorf("wall = %d, want %d", rep.Wall, m.CoreTime(0))
	}
	// Breakdown fractions sum to 1.
	var sum float64
	for _, v := range rep.StallBreakdown() {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("breakdown fractions sum to %g", sum)
	}
	if rep.IPC() <= 0 || rep.IPC() > 1 {
		t.Errorf("IPC = %g out of (0,1]", rep.IPC())
	}
}

func TestSpeedupAndUtilization(t *testing.T) {
	serial := Report{Wall: 1000, Cores: 1}
	parallel := Report{Wall: 10, Cores: 200}
	if got := Speedup(serial, parallel); got != 100 {
		t.Errorf("speedup = %g", got)
	}
	if got := Utilization(serial, parallel); got != 0.5 {
		t.Errorf("utilization = %g", got)
	}
}

func TestMultiplePhasesShareKernel(t *testing.T) {
	cfg := arch.MemPool()
	m := NewMachine(cfg)
	ph := func(name string) Phase {
		return Phase{Name: name, Kernel: "same", Work: func(p *Proc) { p.Tick(1) }}
	}
	if err := m.Run(Job{Name: "t", Cores: []int{0}, Phases: []Phase{ph("a"), ph("b"), ph("c")}}); err != nil {
		t.Fatal(err)
	}
	want := int64(DefaultKernelLines) * cfg.ICache.RefillLatency
	if got := m.CoreStats(0).ICacheStalls; got != want {
		t.Errorf("icache stalls = %d, want %d (single refill)", got, want)
	}
}

func TestNewMachinePanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMachine accepted an invalid config")
		}
	}()
	bad := arch.MemPool()
	bad.Groups = 0
	NewMachine(bad)
}

// TestFetchTaxAccounting: the L0 fetch-miss tax must show up as icache
// stalls while keeping the cycle attribution complete.
func TestFetchTaxAccounting(t *testing.T) {
	cfg := arch.MemPool()
	m := NewMachine(cfg)
	// Four cores of one tile: miss cost 1 cycle every FetchEvery instrs.
	err := m.Run(Job{Name: "t", Cores: []int{0, 1, 2, 3}, Phases: []Phase{{
		Name: "p", FetchEvery: 4, Work: func(p *Proc) { p.Tick(100) },
	}}})
	if err != nil {
		t.Fatal(err)
	}
	end := m.CoreTime(0)
	for c := 0; c < 4; c++ {
		s := m.CoreStats(c)
		// 100 work instructions plus 4 barrier-entry instructions at
		// 1 miss per 4: 26 tax cycles (plus the cold refill on core 0).
		tax := s.ICacheStalls
		if c == 0 {
			tax -= int64(DefaultKernelLines) * cfg.ICache.RefillLatency
		}
		if tax != 26 {
			t.Errorf("core %d: fetch tax %d, want 26", c, tax)
		}
		if s.Busy() != end {
			t.Errorf("core %d: attributed %d of %d cycles", c, s.Busy(), end)
		}
	}
}

// TestFetchTaxFreeForLoneCore: a single-core job pays no fetch tax
// (sequential prefetch hides L0 misses when the shared cache is idle).
func TestFetchTaxFreeForLoneCore(t *testing.T) {
	m := NewMachine(arch.MemPool())
	err := m.Run(Job{Name: "t", Cores: []int{0}, Phases: []Phase{{
		Name: "p", FetchEvery: 4, Work: func(p *Proc) { p.Tick(100) },
	}}})
	if err != nil {
		t.Fatal(err)
	}
	cold := int64(DefaultKernelLines) * m.Cfg.ICache.RefillLatency
	if got := m.CoreStats(0).ICacheStalls; got != cold {
		t.Errorf("lone core icache stalls = %d, want only the cold refill %d", got, cold)
	}
}

// TestFetchTaxScalesWithSharing: eight TeraPool cores sharing a tile pay
// more per miss than four MemPool cores.
func TestFetchTaxScalesWithSharing(t *testing.T) {
	tax := func(cfg *arch.Config, cores []int) int64 {
		m := NewMachine(cfg)
		if err := m.Run(Job{Name: "t", Cores: cores, Phases: []Phase{{
			Name: "p", FetchEvery: 4, Work: func(p *Proc) { p.Tick(400) },
		}}}); err != nil {
			t.Fatal(err)
		}
		return m.CoreStats(cores[1]).ICacheStalls // core 1: no cold refill
	}
	mp := tax(arch.MemPool(), []int{0, 1, 2, 3})
	tp := tax(arch.TeraPool(), []int{0, 1, 2, 3, 4, 5, 6, 7})
	if tp <= mp {
		t.Errorf("TeraPool tax %d not above MemPool %d", tp, mp)
	}
}

// TestBarrierSerializationGrowsWithCores: the central barrier counter
// serializes increments, so bigger jobs pay proportionally more.
func TestBarrierSerializationGrowsWithCores(t *testing.T) {
	wall := func(n int) int64 {
		m := NewMachine(arch.TeraPool())
		cores := make([]int, n)
		for i := range cores {
			cores[i] = i
		}
		mark := m.Mark()
		if err := m.Run(Job{Name: "t", Cores: cores, Phases: []Phase{{
			Name: "p", Work: func(p *Proc) { p.Tick(1) },
		}}}); err != nil {
			t.Fatal(err)
		}
		return m.ReportSince(mark, "b", cores).Wall
	}
	small, big := wall(16), wall(512)
	if big < small+400 {
		t.Errorf("barrier for 512 cores (%d cycles) not ~500 cycles above 16 cores (%d)", big, small)
	}
}

// TestAlignCores: host-level alignment moves clocks without charging
// stalls.
func TestAlignCores(t *testing.T) {
	m := NewMachine(arch.MemPool())
	if err := m.Run(Job{Name: "t", Cores: []int{0}, Phases: []Phase{{Name: "p", Work: func(p *Proc) { p.Tick(500) }}}}); err != nil {
		t.Fatal(err)
	}
	before := m.CoreStats(5)
	m.AlignCores()
	if m.CoreTime(5) != m.CoreTime(0) {
		t.Error("AlignCores did not align")
	}
	if after := m.CoreStats(5); after.WfiStalls != before.WfiStalls {
		t.Error("AlignCores charged WFI")
	}
}

// TestDrainAttributesLSU: waiting out in-flight stores at phase end lands
// in the LSU bucket.
func TestDrainAttributesLSU(t *testing.T) {
	cfg := arch.MemPool()
	remote := cfg.TileLocalAddr(cfg.TilesPerGroup, 0, 0)
	m := runOn(t, cfg, []int{0}, func(p *Proc) {
		p.Store(remote, p.Imm(0)) // 5-cycle completion, then implicit Drain
	})
	if s := m.CoreStats(0); s.LsuStalls == 0 {
		t.Error("drain of an in-flight remote store charged no LSU stalls")
	}
}

// TestAluOpValues pins the value semantics of the small ALU helpers.
func TestAluOpValues(t *testing.T) {
	runOn(t, arch.MemPool(), []int{0}, func(p *Proc) {
		a := p.Imm(fixed.Pack(100, -200))
		if v := p.CNeg(a); v.B.Re() != -100 || v.B.Im() != 200 {
			t.Errorf("CNeg = (%d,%d)", v.B.Re(), v.B.Im())
		}
		if v := p.CConj(a); v.B.Re() != 100 || v.B.Im() != 200 {
			t.Errorf("CConj = (%d,%d)", v.B.Re(), v.B.Im())
		}
		if v := p.CMulJ(a); v.B.Re() != 200 || v.B.Im() != 100 {
			t.Errorf("CMulJ = (%d,%d)", v.B.Re(), v.B.Im())
		}
		if v := p.CMulNegJ(a); v.B.Re() != -200 || v.B.Im() != -100 {
			t.Errorf("CMulNegJ = (%d,%d)", v.B.Re(), v.B.Im())
		}
		if v := p.CHalf(a); v.B.Re() != 50 || v.B.Im() != -100 {
			t.Errorf("CHalf = (%d,%d)", v.B.Re(), v.B.Im())
		}
		b := p.Imm(fixed.Pack(10, 20))
		if v := p.CSub(a, b); v.B.Re() != 90 || v.B.Im() != -220 {
			t.Errorf("CSub = (%d,%d)", v.B.Re(), v.B.Im())
		}
		big1 := p.Imm(fixed.Pack(10000, -20000))
		big2 := p.Imm(fixed.Pack(1000, 2000))
		if v := p.CMulConj(big1, big2); v.B == 0 {
			t.Error("CMulConj returned zero")
		}
		acc := p.MacConj(A{}, a, b)
		if acc.Acc.Re == 0 && acc.Acc.Im == 0 {
			t.Error("MacConj accumulated nothing")
		}
		s := p.AccAdd(acc, acc)
		if s.Acc.Re != 2*acc.Acc.Re {
			t.Error("AccAdd wrong")
		}
		if j := p.AccMulNegJ(acc); j.Acc.Re != acc.Acc.Im {
			t.Error("AccMulNegJ wrong")
		}
		if p.String() == "" {
			t.Error("empty Proc string")
		}
	})
}

// TestCDivOpValue checks the engine's full complex division.
func TestCDivOpValue(t *testing.T) {
	runOn(t, arch.MemPool(), []int{0}, func(p *Proc) {
		a := p.Imm(fixed.FromComplex(complex(0.25, 0.1)))
		b := p.Imm(fixed.FromComplex(complex(0.5, 0)))
		v := p.CDiv(a, b)
		got := v.B.Complex()
		if realDiff := real(got) - 0.5; realDiff > 0.01 || realDiff < -0.01 {
			t.Errorf("CDiv real = %g", real(got))
		}
	})
}

// TestReportRendering exercises the string helpers.
func TestReportRendering(t *testing.T) {
	m := runOn(t, arch.MemPool(), []int{0}, func(p *Proc) { p.Tick(10) })
	rep := m.ReportSince(Mark{
		// zero-valued mark: measure from t=0
		time:  make([]int64, m.Cfg.NumCores()),
		stats: make([]Stats, m.Cfg.NumCores()),
	}, "r", []int{0})
	if s := rep.String(); !strings.Contains(s, "IPC") {
		t.Errorf("Report.String = %q", s)
	}
	if b := rep.StallBreakdown(); len(b) != 6 {
		t.Errorf("StallBreakdown has %d buckets, want 6", len(b))
	}
	if ts := m.TotalStats(); ts.Instrs == 0 {
		t.Error("TotalStats empty")
	}
}

// TestWakeCostTileUnionAcrossGroups: whole tiles spread over two groups
// cost one masked tile-CSR write per group.
func TestWakeCostTileUnionAcrossGroups(t *testing.T) {
	cfg := arch.MemPool()
	m := NewMachine(cfg)
	coresPerGroup := cfg.CoresPerTile * cfg.TilesPerGroup
	var cores []int
	for c := 0; c < cfg.CoresPerTile; c++ {
		cores = append(cores, c)               // tile 0, group 0
		cores = append(cores, coresPerGroup+c) // first tile of group 1
	}
	if got, want := m.wakeCost(cores), 2*cfg.Wake.Tile; got != want {
		t.Errorf("two-group tile wake = %d, want %d", got, want)
	}
}

// TestStatsSubAndAdd round-trips the counter arithmetic.
func TestStatsSubAndAdd(t *testing.T) {
	a := Stats{Instrs: 10, IAlu: 4, Loads: 3, Stores: 2, Divs: 1,
		MACs: 1, RawStalls: 5, LsuStalls: 6, ExtStalls: 7, WfiStalls: 8, ICacheStalls: 9}
	var b Stats
	b.Add(a)
	if b != a {
		t.Error("Add mismatch")
	}
	if d := b.Sub(a); d != (Stats{}) {
		t.Errorf("Sub residue %+v", d)
	}
	if a.StallTotal() != 35 || a.Busy() != 45 {
		t.Errorf("StallTotal %d Busy %d", a.StallTotal(), a.Busy())
	}
}

// accountingDigest folds core clocks and every Stats counter into one
// FNV-1a value, so a test can pin the exact per-op cycle model.
func accountingDigest(times []int64, stats []Stats) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v int64) {
		for i := 0; i < 8; i++ {
			h ^= uint64(v>>(8*i)) & 0xff
			h *= 1099511628211
		}
	}
	for i, s := range stats {
		mix(times[i])
		for _, v := range []int64{s.Instrs, s.IAlu, s.Loads, s.Stores, s.Divs, s.MACs,
			s.RawStalls, s.LsuStalls, s.ExtStalls, s.WfiStalls, s.ICacheStalls} {
			mix(v)
		}
	}
	return h
}

// TestRandomProgramAccounting drives the engine with randomized op
// sequences over every issuing Proc op and asserts the core invariant:
// every cycle of every core is attributed to exactly one bucket, clocks
// are monotonic, and the run is deterministic. Each seed's core clocks
// and stats are pinned by digest, so any drift in the shared per-op
// cycle model (issue, fetch tax, bank level, reservation, LSU ring,
// divide unit) fails here even where scalar and bulk ops would still
// agree with each other. It runs on MemPool and on a 54-bank geometry,
// which takes the non-power-of-two path of the bank map.
func TestRandomProgramAccounting(t *testing.T) {
	geoms := []struct {
		cfg    *arch.Config
		cores  []int
		region int // words of private address space per lane
		want   [20]uint64
	}{
		{arch.MemPool(), []int{0, 1, 2, 3, 17, 42, 200, 255}, 512, [20]uint64{
			0x1853d5940b4c716d, 0x96107273bc6e5111, 0xe75227ea41a80a90, 0x3ca55824b0229282,
			0x57935faedac994cf, 0xad36fd2471a8a02c, 0x4f9ad6008aaf86bd, 0x508a023e86d8be11,
			0xcbc1c944e22a147b, 0x9d3b63c74bac9ab1, 0xbc6a121710ba13e4, 0xb7a074fb7ef1f8e,
			0x94e67a43aebf1d8e, 0x2b96e0f20190a6eb, 0x3fc980dfe511cfac, 0xe69bc74d3fefa31f,
			0x8bea2a19998a0233, 0xe974d6d6a310933e, 0xecacc2ca90163d1e, 0xe2808ef12c03b54d,
		}},
		{propCfg("prop-3g", 3, 2, 3, 3), []int{0, 1, 4, 7, 11, 17}, 256, [20]uint64{
			0xbfaab6efa5a35f82, 0x894f55e9f46b4311, 0x26a58716a9eaf238, 0x1c70ccf9fe8a113,
			0xe1b780485aec980, 0x83ff19d2d49073d, 0x9b3466c8f9f5771, 0xfe5b49e07df259f0,
			0xbae093c1a7fbf0b5, 0xb2c2f05bd5eb5a9c, 0x897aa20c9b17a4ad, 0x577d122bc188800,
			0xa3834a798c36fd89, 0xf089385c7b7144b5, 0x3e49e6446a4baf1a, 0xcbec5d4515dd6c0c,
			0x2f8b8ae00fd50fb3, 0xc338af872d3fea8e, 0xb6831d45fc0dfa03, 0xd768d5d1bad40b94,
		}},
	}
	for _, g := range geoms {
		for seed := uint64(1); seed <= 20; seed++ {
			run := func() ([]int64, []Stats) {
				m := NewMachine(g.cfg)
				arena, err := m.Mem.AllocSeq(g.region * len(g.cores))
				if err != nil {
					t.Fatal(err)
				}
				prog := randomProgram(seed, arena, g.region)
				if err := m.Run(Job{Name: "fuzz", Cores: g.cores, Phases: []Phase{{Name: "p", Work: prog}}}); err != nil {
					t.Fatal(err)
				}
				times := make([]int64, len(g.cores))
				stats := make([]Stats, len(g.cores))
				for i, c := range g.cores {
					times[i] = m.CoreTime(c)
					stats[i] = m.CoreStats(c)
				}
				return times, stats
			}
			t1, s1 := run()
			for i, c := range g.cores {
				if s1[i].Busy() != t1[0] {
					t.Fatalf("%s seed %d core %d: attributed %d of %d cycles", g.cfg.Name, seed, c, s1[i].Busy(), t1[0])
				}
				if t1[i] != t1[0] {
					t.Fatalf("%s seed %d: cores not aligned after barrier", g.cfg.Name, seed)
				}
			}
			// Determinism: a fresh machine must reproduce identical timing.
			t2, s2 := run()
			for i := range t1 {
				if t1[i] != t2[i] || s1[i] != s2[i] {
					t.Fatalf("%s seed %d: nondeterministic replay at core %d", g.cfg.Name, seed, g.cores[i])
				}
			}
			if got := accountingDigest(t1, s1); got != g.want[seed-1] {
				t.Errorf("%s seed %d: accounting digest %#x, want %#x", g.cfg.Name, seed, got, g.want[seed-1])
			}
		}
	}
}

// randomProgram returns a deterministic per-lane op soup over every
// issuing Proc op. Lane l only touches words [l*region, (l+1)*region)
// past arena, so the phase is data-race free; strided bulk ops draw
// strides from [-3, 3], zero included.
func randomProgram(seed uint64, arena arch.Addr, region int) func(p *Proc) {
	return func(p *Proc) {
		s := seed*1000003 + uint64(p.Lane)*7919
		next := func() uint64 { s = s*6364136223846793005 + 1442695040888963407; return s >> 33 }
		lo := int(arena) + p.Lane*region
		addr := func() arch.Addr { return arch.Addr(lo + int(next()%uint64(region))) }
		// span picks n words at stride within the lane's region.
		span := func() (arch.Addr, int, int) {
			n := int(next()%8) + 1
			stride := int(next()%7) - 3
			first, last := 0, region-1
			if d := (n - 1) * stride; d >= 0 {
				last -= d
			} else {
				first -= d
			}
			return arch.Addr(lo + first + int(next()%uint64(last-first+1))), stride, n
		}
		var w, w2 W
		var acc, acc2 A
		var buf [8]W
		var addrs [8]arch.Addr
		for i := 0; i < 200; i++ {
			switch next() % 36 {
			case 0:
				p.Tick(int(next()%4) + 1)
			case 1:
				w = p.Load(addr())
			case 2:
				p.Store(addr(), w)
			case 3:
				w = p.CAdd(w, w2)
			case 4:
				w = p.CMul(w, w2)
			case 5:
				acc = p.Mac(acc, w, w2)
			case 6:
				w = p.Narrow(acc, 4)
			case 7:
				w = p.SqrtRe(acc)
			case 8:
				base, stride, n := span()
				p.LoadVec(base, stride, buf[:n])
				w, w2 = buf[0], buf[n-1]
			case 9:
				base, stride, n := span()
				for j := range buf[:n] {
					buf[j] = w
				}
				buf[n-1] = w2
				p.StoreVec(base, stride, buf[:n])
			case 10:
				n := int(next()%8) + 1
				base := arch.Addr(lo + int(next()%uint64(region-n+1)))
				p.LoadSpan(base, buf[:n])
				w = buf[n/2]
			case 11:
				n := int(next()%8) + 1
				base := arch.Addr(lo + int(next()%uint64(region-n+1)))
				p.StoreSpan(base, buf[:n])
			case 12:
				n := int(next()%8) + 1
				for j := range addrs[:n] {
					addrs[j] = addr()
				}
				p.LoadGather(addrs[:n], buf[:n])
				w2 = buf[0]
			case 13:
				n := int(next()%8) + 1
				for j := range addrs[:n] {
					addrs[j] = addr()
				}
				buf[0] = w
				p.StoreScatter(addrs[:n], buf[:n])
			case 14:
				w, w2 = p.Load2(addr(), addr())
			case 15:
				w2 = p.AmoAdd(addr())
			case 16:
				w = p.MulTw(acc, w2, uint(next()%3))
			case 17:
				acc2 = p.Widen(w)
			case 18:
				acc = p.AccSub(acc, acc2)
			case 19:
				w = p.DivByRe(acc, w2)
			case 20:
				w2 = p.CDiv(w, w2)
			case 21:
				p.Drain()
			case 22:
				w = p.CSub(w, w2)
			case 23:
				w2 = p.CNeg(w)
			case 24:
				w = p.CConj(w2)
			case 25:
				w = p.CMulJ(w)
			case 26:
				w2 = p.CMulNegJ(w2)
			case 27:
				w = p.CHalf(w)
			case 28:
				w2 = p.CMulConj(w, w2)
			case 29:
				acc2 = p.MacConj(acc2, w, w2)
			case 30:
				acc = p.MacAbs2(acc, w2)
			case 31:
				acc2 = p.CAddW(w, w2)
			case 32:
				acc = p.CSubW(w2, w)
			case 33:
				acc = p.AccAdd(acc, acc2)
			case 34:
				acc2 = p.AccMulNegJ(acc)
			case 35:
				w2 = p.Imm(fixed.C15(next()))
			}
		}
	}
}

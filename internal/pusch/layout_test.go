package pusch

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/waveform"
)

func TestParseLayoutForms(t *testing.T) {
	mp := arch.MemPool()
	for _, name := range []string{"", "seq", "sequential", "SEQUENTIAL"} {
		lay, err := ParseLayout(name, mp)
		if err != nil {
			t.Fatalf("ParseLayout(%q): %v", name, err)
		}
		if lay.Pipelined() {
			t.Errorf("ParseLayout(%q) is pipelined", name)
		}
		if got := lay.String(); got != "sequential" {
			t.Errorf("ParseLayout(%q).String() = %q", name, got)
		}
	}
	stock, err := ParseLayout("pipe", mp)
	if err != nil {
		t.Fatal(err)
	}
	if got := stock.String(); got != "pipe/f128/b64/d64" {
		t.Errorf("stock MemPool layout = %q, want pipe/f128/b64/d64", got)
	}
	tp, err := ParseLayout("pipelined", arch.TeraPool())
	if err != nil {
		t.Fatal(err)
	}
	if got := tp.String(); got != "pipe/f512/b256/d256" {
		t.Errorf("stock TeraPool layout = %q, want pipe/f512/b256/d256", got)
	}
	explicit, err := ParseLayout("pipe/f64/b32/d64", mp)
	if err != nil {
		t.Fatal(err)
	}
	if got := explicit.String(); got != "pipe/f64/b32/d64" {
		t.Errorf("explicit split round-trip = %q", got)
	}
	if want := (Layout{F: 64, B: 32, D: 64}); explicit != want {
		t.Errorf("explicit split = %+v, want %+v", explicit, want)
	}
	for _, bad := range []string{"bogus", "pipe/x64/b32/d64", "pipe/f64/b32", "pipe/f64/b32/dxx", "pipe/f999/b64/d64"} {
		if _, err := ParseLayout(bad, mp); err == nil {
			t.Errorf("ParseLayout(%q) accepted", bad)
		}
	}
}

// TestLayoutForCluster: an inherited split is kept where it fits and
// replaced by the cluster's stock split where it does not.
func TestLayoutForCluster(t *testing.T) {
	mp, tp := arch.MemPool(), arch.TeraPool()
	small := Layout{F: 64, B: 32, D: 64}
	for _, tc := range []struct {
		name    string
		l       Layout
		cluster *arch.Config
		want    Layout
	}{
		{"sequential", Sequential, mp, Sequential},
		{"fits", small, tp, small},
		{"nil is MemPool", small, nil, small},
		{"too large", StockPipelined(tp), mp, StockPipelined(mp)},
		{"too large for nil", StockPipelined(tp), nil, StockPipelined(mp)},
	} {
		if got := tc.l.ForCluster(tc.cluster); got != tc.want {
			t.Errorf("%s: %s.ForCluster = %s, want %s", tc.name, tc.l, got, tc.want)
		}
	}
}

func TestLayoutValidate(t *testing.T) {
	mp := arch.MemPool()
	good, err := PipelinedSplit(mp, 64, 32, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := good.validate(mp, 256); err != nil {
		t.Fatalf("valid layout rejected: %v", err)
	}
	// FFT partition below the lane demand.
	small, err := PipelinedSplit(mp, 8, 32, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := small.validate(mp, 256); err == nil {
		t.Error("8-core FFT partition accepted for a 16-lane FFT")
	}
	// A partition without cores.
	missing := good
	missing.B = 0
	if err := missing.validate(mp, 256); err == nil {
		t.Error("layout with an empty beamforming partition accepted")
	}
	// A split larger than the cluster.
	oversized := good
	oversized.D = 1 << 20
	if err := oversized.validate(mp, 256); err == nil {
		t.Error("split beyond the cluster accepted")
	}
	// Shared partitions (che == ne == mimo) are legal; the stock layout
	// relies on it.
	if err := StockPipelined(mp).validate(mp, 256); err != nil {
		t.Errorf("stock layout invalid: %v", err)
	}
}

// TestGoldenSequentialLayout pins the legacy execution path: an
// explicit Layout: Sequential (like the zero value the other goldens
// run) must reproduce the pre-layout chain's cycle count, link metrics
// and per-stage wall breakdown exactly. Any drift here means the
// layout refactor changed the sequential chain.
func TestGoldenSequentialLayout(t *testing.T) {
	cfg := goldenChainConfig()
	cfg.Layout = Sequential
	res, err := RunChain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles != 19085 {
		t.Errorf("cycles = %d, want golden 19085", res.TotalCycles)
	}
	if res.BER != 0.017578125 {
		t.Errorf("BER = %v, want golden 0.017578125", res.BER)
	}
	if res.EVMdB != -5.516783692944013 {
		t.Errorf("EVM = %v, want golden -5.516783692944013", res.EVMdB)
	}
	if res.SigmaEst != 6.4849853515625e-05 {
		t.Errorf("sigma^2 = %v, want golden 6.4849853515625e-05", res.SigmaEst)
	}
	wantWalls := map[Stage]int64{
		StageOFDM: 5124,
		StageBF:   2647,
		StageCHE:  4428,
		StageNE:   2336,
		StageMIMO: 4550,
	}
	for st, want := range wantWalls {
		if got := res.Stages[st].Wall; got != want {
			t.Errorf("stage %s wall = %d, want golden %d", st, got, want)
		}
	}
	// The wire record must omit the layout coordinate for sequential
	// runs, keeping the pre-layout bytes.
	if rec := res.Record(cfg); rec.Layout != "" {
		t.Errorf("sequential record carries layout %q", rec.Layout)
	}
}

// pipelinedGoldenConfig is the golden operating point under the stock
// partitioned layout.
func pipelinedGoldenConfig() ChainConfig {
	cfg := goldenChainConfig()
	cfg.Layout = StockPipelined(cfg.Cluster)
	return cfg
}

// TestGoldenPipelinedLayout pins the pipelined execution path the way
// TestGoldenSequentialLayout pins the sequential one: the stock MemPool
// split on the golden operating point, and the stock TeraPool split on
// a full 14-symbol slot. Any drift here means a change moved the beat
// schedule, the partition handshakes or the double-buffered plans.
func TestGoldenPipelinedLayout(t *testing.T) {
	teraPool := goldenChainConfig()
	teraPool.Cluster = arch.TeraPool()
	teraPool.Layout = StockPipelined(teraPool.Cluster)
	teraPool.NSymb = 14
	for _, tc := range []struct {
		name          string
		cfg           ChainConfig
		cycles        int64
		ber, evm, sig float64
		walls         map[Stage]int64
	}{
		{
			name:   "mempool",
			cfg:    pipelinedGoldenConfig(),
			cycles: 24170,
			ber:    0.04296875, evm: -2.4819447120802938, sig: 6.389617919921875e-05,
			walls: map[Stage]int64{
				StageOFDM: 9520,
				StageBF:   10533,
				StageCHE:  7208,
				StageNE:   1080,
				StageMIMO: 15882,
			},
		},
		{
			name:   "terapool-14sym",
			cfg:    teraPool,
			cycles: 36053,
			ber:    0.010294596354166666, evm: -6.093357657413081, sig: 6.4849853515625e-05,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunChain(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalCycles != tc.cycles {
				t.Errorf("cycles = %d, want golden %d", res.TotalCycles, tc.cycles)
			}
			if res.BER != tc.ber || res.EVMdB != tc.evm || res.SigmaEst != tc.sig {
				t.Errorf("BER/EVM/sigma^2 = %v/%v/%v, want golden %v/%v/%v",
					res.BER, res.EVMdB, res.SigmaEst, tc.ber, tc.evm, tc.sig)
			}
			for st, want := range tc.walls {
				if got := res.Stages[st].Wall; got != want {
					t.Errorf("stage %s wall = %d, want golden %d", st, got, want)
				}
			}
		})
	}
}

// TestStageWallsWithinSlot: a stage's wall can never exceed the slot
// it ran in, and no record phase may claim more than the whole slot.
// Pipelined stages are measured over the cores their plans enroll; a
// window taken over a whole partition counted idle cores still at their
// starting clock and stretched every FFT window back to it.
func TestStageWallsWithinSlot(t *testing.T) {
	gate := ChainConfig{
		Cluster: arch.MemPool(),
		NSC:     64, NR: 16, NB: 8, NL: 4,
		NSymb: 14, NPilot: 2,
		Scheme: waveform.QPSK,
		SNRdB:  20,
		Seed:   1,
	}
	teraPool := goldenChainConfig()
	teraPool.Cluster = arch.TeraPool()
	teraPool.NSymb = 14
	for _, base := range []struct {
		name string
		cfg  ChainConfig
	}{{"mempool-64sc", gate}, {"terapool-256sc", teraPool}} {
		for _, name := range []string{"sequential", "pipe", "pipe/f64/b32/d64"} {
			t.Run(base.name+"/"+name, func(t *testing.T) {
				cfg := base.cfg
				lay, err := ParseLayout(name, cfg.Cluster)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Layout = lay
				res, err := RunChain(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, st := range Stages {
					if wall := res.Stages[st].Wall; wall > res.TotalCycles {
						t.Errorf("stage %s wall %d exceeds the %d-cycle slot", st, wall, res.TotalCycles)
					}
				}
				for _, ph := range res.Record(cfg).Phases {
					if ph.Share > 1 {
						t.Errorf("phase %s share %v > 1", ph.Name, ph.Share)
					}
				}
			})
		}
	}
}

// TestPipelinedDeterministicAcrossMachines runs the pipelined chain on
// a fresh machine, a caller-supplied machine and a Reset reused one,
// requiring identical cycles, metrics and stage walls: the property the
// campaign and scheduler byte-determinism contracts rest on.
func TestPipelinedDeterministicAcrossMachines(t *testing.T) {
	cfg := pipelinedGoldenConfig()
	fresh, err := RunChain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := engine.NewMachine(arch.MemPool())
	first, err := RunChainOn(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Reset()
	reused, err := RunChainOn(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range []struct {
		name string
		a, b *ChainResult
	}{
		{"fresh vs supplied", fresh, first},
		{"fresh vs reused", fresh, reused},
	} {
		a, b := pair.a, pair.b
		if a.TotalCycles != b.TotalCycles {
			t.Errorf("%s: cycles %d vs %d", pair.name, a.TotalCycles, b.TotalCycles)
		}
		if a.BER != b.BER || a.EVMdB != b.EVMdB || a.SigmaEst != b.SigmaEst {
			t.Errorf("%s: link metrics diverge", pair.name)
		}
		for _, st := range Stages {
			if a.Stages[st].Wall != b.Stages[st].Wall {
				t.Errorf("%s: stage %s wall %d vs %d", pair.name, st, a.Stages[st].Wall, b.Stages[st].Wall)
			}
		}
	}
	// The record carries the layout coordinate.
	if rec := fresh.Record(cfg); rec.Layout != "pipe/f128/b64/d64" {
		t.Errorf("pipelined record layout = %q", rec.Layout)
	}
}

// TestPipelinedRaceDetectorClean runs the pipelined chain with the
// fork-join race detector armed: the double-buffered inter-stage
// regions and the partition handshakes must never let two partitions
// touch one word in the same phase. A race panics, failing the test.
func TestPipelinedRaceDetectorClean(t *testing.T) {
	cfg := pipelinedGoldenConfig()
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	m := engine.NewMachine(cfg.Cluster)
	m.DebugRaces = true
	if _, err := RunChainOn(m, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPipelinedBeatsSequentialOnGateShape pins the headline result the
// CI layout gate enforces: on the stock MemPool cluster serving a
// small (64-subcarrier) allocation — the regime where per-kernel
// parallelism saturates far below the core count — the stock pipelined
// layout must finish the slot in fewer cycles than the sequential one.
func TestPipelinedBeatsSequentialOnGateShape(t *testing.T) {
	base := ChainConfig{
		Cluster: arch.MemPool(),
		NSC:     64, NR: 16, NB: 8, NL: 4,
		NSymb: 14, NPilot: 2,
		Scheme: waveform.QPSK,
		SNRdB:  20,
		Seed:   1,
	}
	seq, err := RunChain(base)
	if err != nil {
		t.Fatal(err)
	}
	piped := base
	piped.Layout = StockPipelined(base.Cluster)
	pip, err := RunChain(piped)
	if err != nil {
		t.Fatal(err)
	}
	if pip.TotalCycles >= seq.TotalCycles {
		t.Errorf("pipelined %d cycles >= sequential %d on the gate shape", pip.TotalCycles, seq.TotalCycles)
	}
	if pip.BER > 2*seq.BER+0.01 {
		t.Errorf("pipelined BER %v implausibly worse than sequential %v", pip.BER, seq.BER)
	}
}

// TestPipelinedRunSymbolContract pins the Pipeline's API contract on
// both layouts: symbols must arrive in order, within the slot, never
// after Drain, and as NR rows of NSC samples. Malformed input must
// error, not panic.
func TestPipelinedRunSymbolContract(t *testing.T) {
	for _, lay := range []struct {
		name   string
		layout func(*arch.Config) Layout
	}{
		{"sequential", func(*arch.Config) Layout { return Sequential }},
		{"pipelined", StockPipelined},
	} {
		t.Run(lay.name, func(t *testing.T) {
			cfg := goldenChainConfig()
			cfg.Layout = lay.layout(cfg.Cluster)
			cfg.setDefaults()
			if err := cfg.validate(); err != nil {
				t.Fatal(err)
			}
			newPipeline := func() *Pipeline {
				pl, err := NewPipeline(engine.NewMachine(cfg.Cluster), cfg)
				if err != nil {
					t.Fatal(err)
				}
				return pl
			}
			rx := func(nr, nsc int) [][]complex128 {
				rows := make([][]complex128, nr)
				for a := range rows {
					rows[a] = make([]complex128, nsc)
				}
				return rows
			}
			ragged := rx(cfg.NR, cfg.NSC)
			ragged[cfg.NR-1] = ragged[cfg.NR-1][:cfg.NSC-1]
			for _, bad := range []struct {
				name string
				rx   [][]complex128
			}{
				{"nil", nil},
				{"too few antennas", rx(cfg.NR-1, cfg.NSC)},
				{"too many antennas", rx(cfg.NR+1, cfg.NSC)},
				{"too many samples", rx(cfg.NR, cfg.NSC+1)},
				{"ragged", ragged},
			} {
				if err := newPipeline().RunSymbol(0, bad.rx); err == nil {
					t.Errorf("%s input accepted", bad.name)
				}
			}

			pl := newPipeline()
			if err := pl.RunSymbol(1, rx(cfg.NR, cfg.NSC)); err == nil {
				t.Error("out-of-order RunSymbol accepted")
			}
			if err := pl.RunSymbol(0, rx(cfg.NR, cfg.NSC)); err != nil {
				t.Fatalf("well-formed symbol 0 rejected: %v", err)
			}
			if err := pl.Drain(); err != nil {
				t.Fatal(err)
			}
			if err := pl.RunSymbol(1, rx(cfg.NR, cfg.NSC)); err == nil {
				t.Error("RunSymbol after Drain accepted")
			}
			// One symbol past the slot length must error, not panic on the
			// finish-time slices.
			pl2 := newPipeline()
			pl2.issued = cfg.NSymb
			if err := pl2.RunSymbol(cfg.NSymb, rx(cfg.NR, cfg.NSC)); err == nil {
				t.Error("RunSymbol past NSymb accepted")
			}
		})
	}
}

// TestPipelinedTeraPoolRetiresEarlyPages pins the per-beat retirement
// contract on the stock TeraPool pipelined layout: its FFT partition is
// wider than the transforms' lane sets, so half of it never leaves
// cycle 0, and a cutoff taken over every core would never retire
// anything. After the slot, the first reservation page must read free.
func TestPipelinedTeraPoolRetiresEarlyPages(t *testing.T) {
	cfg := goldenChainConfig()
	cfg.Cluster = arch.TeraPool()
	cfg.Layout = StockPipelined(cfg.Cluster)
	cfg.NSymb = 14 // a full slot: long enough for every core to pass page 0
	m := engine.NewMachine(cfg.Cluster)
	res, err := RunChainOn(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < cfg.Cluster.NumBanks(); b++ {
		for c := int64(0); c < 1<<12; c++ {
			if m.Mem.Res.Busy(b, c) {
				t.Fatalf("bank %d still books cycle %d after a %d-cycle pipelined slot", b, c, res.TotalCycles)
			}
		}
	}
}

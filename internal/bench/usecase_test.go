package bench

import (
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/engine"
)

// TestGoldenUseCaseCycles pins the exact cycle budget of the full-scale
// Fig. 9c slot record: every phase's per-pass wall, pass count and
// total, the slot total and the serial baseline, on stock TeraPool and
// on MemPool (bare decompositions, the full MIMO stage, and with the
// serial baseline). The engine is deterministic, so any drift is a real
// change to the experiment.
func TestGoldenUseCaseCycles(t *testing.T) {
	type phase struct {
		name                 string
		perPass, passes, tot int64
	}
	mempool := func(edit func(*UseCaseConfig)) UseCaseConfig {
		cfg := DefaultUseCase()
		cfg.Cluster = arch.MemPool()
		edit(&cfg)
		return cfg
	}
	fft := phase{"OFDM FFT", 109208, 14, 1528912}
	bf := phase{"BF MMM", 58497, 14, 818958}
	chol := phase{"MIMO Cholesky", 6051, 12, 72612}
	cases := []struct {
		name   string
		cfg    UseCaseConfig
		slow   bool
		phases []phase
		total  int64
		serial int64
	}{
		{
			name: "terapool",
			cfg:  DefaultUseCase(),
			phases: []phase{
				{"OFDM FFT", 30461, 14, 426454},
				{"BF MMM", 16133, 14, 225862},
				{"MIMO Cholesky", 7005, 3, 21015},
			},
			total: 673331,
		},
		{
			name:   "mempool",
			cfg:    mempool(func(*UseCaseConfig) {}),
			phases: []phase{fft, bf, chol},
			total:  2420482,
		},
		{
			name:   "mempool-full-mimo",
			cfg:    mempool(func(c *UseCaseConfig) { c.FullMIMO = true }),
			phases: []phase{fft, bf, {"MIMO stage", 99028, 12, 1188336}},
			total:  3536206,
		},
		{
			name:   "mempool-serial",
			cfg:    mempool(func(c *UseCaseConfig) { c.WithSerial = true }),
			slow:   true,
			phases: []phase{fft, bf, chol},
			total:  2420482,
			serial: 541724458,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("the serial baseline simulates the whole slot on one core")
			}
			res, err := RunUseCase(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			rec := res.Record(tc.cfg)
			if len(rec.Phases) != len(tc.phases) {
				t.Fatalf("%d phases, want %d", len(rec.Phases), len(tc.phases))
			}
			for i, p := range rec.Phases {
				w := tc.phases[i]
				if p.Name != w.name || p.PerPass != w.perPass || int64(p.Passes) != w.passes || p.Cycles != w.tot {
					t.Errorf("phase %d = %s %d x %d = %d, want %s %d x %d = %d",
						i, p.Name, p.PerPass, p.Passes, p.Cycles, w.name, w.perPass, w.passes, w.tot)
				}
			}
			if rec.TotalCycles != tc.total || rec.SerialCycles != tc.serial {
				t.Errorf("slot %d cycles (serial %d), want %d (serial %d)",
					rec.TotalCycles, rec.SerialCycles, tc.total, tc.serial)
			}
		})
	}
}

// TestUseCaseSmall runs the Fig. 9c machinery at reduced scale so it
// stays unit-test fast, checking structure rather than magnitude.
func TestUseCaseSmall(t *testing.T) {
	res, err := RunUseCase(UseCaseConfig{
		Cluster:      arch.MemPool(),
		Symbols:      14,
		DataSymbols:  12,
		NFFT:         1024,
		NR:           16,
		NB:           8,
		NL:           4,
		CholPerRound: 4,
		WithSerial:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles != res.FFT.Total+res.MMM.Total+res.Chol.Total {
		t.Error("totals do not add up")
	}
	sh := res.Shares()
	var sum float64
	for _, v := range sh {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %g", sum)
	}
	if res.FFT.Passes != 14 || res.MMM.Passes != 14 {
		t.Errorf("pass counts %d/%d, want 14/14", res.FFT.Passes, res.MMM.Passes)
	}
	// 1024 decs per data symbol over 256 cores = 4 per core per symbol;
	// at 4 per barrier that is 12 passes.
	if res.Chol.Passes != 12 {
		t.Errorf("chol passes = %d, want 12", res.Chol.Passes)
	}
	if res.Speedup < 16 || res.Speedup > 256 {
		t.Errorf("speedup %.0f outside (16, 256) for MemPool", res.Speedup)
	}
	if res.TimeMs <= 0 {
		t.Error("no time computed")
	}
}

func TestUseCaseValidation(t *testing.T) {
	bad := DefaultUseCase()
	bad.Symbols = 0
	if _, err := RunUseCase(bad); err == nil {
		t.Error("zero symbols accepted")
	}
	bad = DefaultUseCase()
	bad.CholPerRound = 0
	if _, err := RunUseCase(bad); err == nil {
		t.Error("zero CholPerRound accepted")
	}
}

// TestUseCaseRedBeatsGreen: batching 16 decompositions per barrier (the
// paper's red schedule) must not be slower than 4 per barrier (green),
// mirroring the 871-vs-848 ordering.
func TestUseCaseRedBeatsGreen(t *testing.T) {
	run := func(per int) int64 {
		res, err := RunUseCase(UseCaseConfig{
			Cluster:      arch.MemPool(),
			Symbols:      14,
			DataSymbols:  12,
			NFFT:         1024,
			NR:           16,
			NB:           8,
			NL:           4,
			CholPerRound: per,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalCycles
	}
	green := run(4)
	red := run(16)
	if red > green {
		t.Errorf("red schedule (%d cycles) slower than green (%d)", red, green)
	}
}

func TestUseCaseRecord(t *testing.T) {
	cfg := UseCaseConfig{
		Cluster:      arch.MemPool(),
		Symbols:      14,
		DataSymbols:  12,
		NFFT:         1024,
		NR:           16,
		NB:           8,
		NL:           4,
		CholPerRound: 4,
		WithSerial:   true,
	}
	res, err := RunUseCase(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Record(cfg)
	if rec.Kind != "usecase" || rec.CholPerRound != 4 || rec.UEs != 4 {
		t.Errorf("record identity = %+v", rec)
	}
	if len(rec.Phases) != 3 || rec.Phases[0].Name != "OFDM FFT" {
		t.Errorf("phases = %+v", rec.Phases)
	}
	if rec.TotalCycles != res.TotalCycles || rec.SerialCycles != res.SerialCycles {
		t.Error("record cycles disagree with the result")
	}
	// 16-QAM payload over the allocated share of the scaled FFT:
	// 1024-point FFT keeps the reference 3276/4096 allocation ratio.
	if want := int64(12) * (1024 * 3276 / 4096) * 4 * 4; rec.PayloadBits != want {
		t.Errorf("payload = %d bits, want %d", rec.PayloadBits, want)
	}
	if rec.ThroughputGbps <= 0 || rec.Speedup != res.Speedup {
		t.Errorf("throughput %g, speedup %g", rec.ThroughputGbps, rec.Speedup)
	}
}

func TestUseCaseOnPoolMatchesFresh(t *testing.T) {
	cfg := UseCaseConfig{
		Cluster: arch.MemPool(),
		Symbols: 4, DataSymbols: 2,
		NFFT: 256, NR: 8, NB: 4, NL: 4,
		CholPerRound: 4,
	}
	fresh, err := RunUseCase(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool := engine.NewMachines()
	// Two runs through the same pool: the second reuses the machines the
	// first one pooled.
	for i := 0; i < 2; i++ {
		got, err := RunUseCaseOn(pool, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.TotalCycles != fresh.TotalCycles {
			t.Errorf("run %d: pooled cycles %d, fresh %d", i, got.TotalCycles, fresh.TotalCycles)
		}
	}
	if pool.Size() == 0 {
		t.Error("use case did not return machines to the pool")
	}
}

package bench

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/fixed"
	"repro/internal/kernels/fft"
	"repro/internal/kernels/mimo"
	"repro/internal/kernels/mmm"
	"repro/internal/pusch"
	"repro/internal/report"
)

// UseCaseConfig parameterizes the Fig. 9c experiment: the Section II
// reference slot (14 symbols, 64 antennas, 32 beams, 4 UEs, 4096-point
// FFT) mapped onto one cluster. Each kernel pass is timed once with warm
// caches and scaled by its per-slot repetition count, exactly how the
// figure composes its cycle budget. Banks are deepened to hold the
// working set, as in the Fig. 8/9 runners, so clusters smaller than it
// (MemPool at this scale) run the experiment with the same timing.
type UseCaseConfig struct {
	Cluster      *arch.Config
	Symbols      int // OFDM symbols per slot (14)
	DataSymbols  int // data symbols carrying MIMO detection (12)
	NFFT         int // FFT size / subcarriers per decomposition set (4096)
	NR           int // antennas (64)
	NB           int // beams (32)
	NL           int // UEs (4)
	CholPerRound int // decompositions per core between barriers (4 green, 16 red)
	// FullMIMO times the complete MIMO stage (Gramian, Cholesky, matched
	// filter, triangular solves) per data symbol instead of the bare
	// decompositions the figure's label names (puschsim -full-mimo), to
	// test the hypothesis that the paper's use-case bar includes the
	// surrounding work.
	FullMIMO   bool
	WithSerial bool // also measure the serial single-core baseline (slow)
}

// KernelTiming is one kernel's contribution to the slot budget.
type KernelTiming struct {
	Name     string
	PerPass  int64 // wall cycles of one measured pass
	Passes   int   // repetitions per slot
	Total    int64
	IPC      float64
	MACsPerC float64
}

// kernelTiming scales one measured pass by its per-slot repetition count.
func kernelTiming(name string, rep engine.Report, passes int) KernelTiming {
	return KernelTiming{
		Name: name, PerPass: rep.Wall, Passes: passes,
		Total: rep.Wall * int64(passes), IPC: rep.IPC(), MACsPerC: rep.MACsPerCycle(),
	}
}

// UseCaseResult is the Fig. 9c reproduction output.
type UseCaseResult struct {
	FFT  KernelTiming
	MMM  KernelTiming
	Chol KernelTiming

	TotalCycles int64
	TimeMs      float64 // at 1 GHz

	SerialCycles int64   // only when WithSerial
	Speedup      float64 // only when WithSerial
}

// Shares returns each kernel's fraction of the slot cycles (the Fig. 9c
// percentages).
func (r *UseCaseResult) Shares() map[string]float64 {
	t := float64(r.TotalCycles)
	if t == 0 {
		return nil
	}
	return map[string]float64{
		"fft":  float64(r.FFT.Total) / t,
		"mmm":  float64(r.MMM.Total) / t,
		"chol": float64(r.Chol.Total) / t,
	}
}

// Record converts the result into its typed telemetry record. The
// throughput figure assumes 16-QAM payload (the operating point of the
// TeraPool SDR follow-up) over the allocated share of the FFT: the
// paper's reference slot allocates 3276 of the 4096 bins, and scaled
// configurations keep that ratio.
func (r *UseCaseResult) Record(cfg UseCaseConfig) report.SlotRecord {
	const bitsPerSymbol = 4 // 16-QAM
	dims := pusch.UseCaseDims(cfg.NL)
	dims.NSC = cfg.NFFT * dims.NSC / 4096
	dims.NSymb, dims.NPilot = cfg.Symbols, cfg.Symbols-cfg.DataSymbols
	bits := dims.PayloadBits(bitsPerSymbol)
	shares := r.Shares()
	phase := func(k KernelTiming, share float64) report.SlotPhase {
		return report.SlotPhase{
			Name:         k.Name,
			PerPass:      k.PerPass,
			Passes:       k.Passes,
			Cycles:       k.Total,
			Share:        share,
			IPC:          k.IPC,
			MACsPerCycle: k.MACsPerC,
		}
	}
	return report.SlotRecord{
		Kind:         "usecase",
		Cluster:      cfg.Cluster.Name,
		Cores:        cfg.Cluster.NumCores(),
		UEs:          cfg.NL,
		Scheme:       "16qam",
		CholPerRound: cfg.CholPerRound,
		Phases: []report.SlotPhase{
			phase(r.FFT, shares["fft"]),
			phase(r.MMM, shares["mmm"]),
			phase(r.Chol, shares["chol"]),
		},
		TotalCycles:    r.TotalCycles,
		TimeMs:         r.TimeMs,
		PayloadBits:    bits,
		ThroughputGbps: report.Gbps(bits, r.TotalCycles),
		SerialCycles:   r.SerialCycles,
		Speedup:        r.Speedup,
	}
}

// DefaultUseCase returns the paper's TeraPool use-case with the improved
// (red, 16-per-barrier) Cholesky schedule.
func DefaultUseCase() UseCaseConfig {
	return UseCaseConfig{
		Cluster:      arch.TeraPool(),
		Symbols:      14,
		DataSymbols:  12,
		NFFT:         4096,
		NR:           64,
		NB:           32,
		NL:           4,
		CholPerRound: 16,
	}
}

func (c *UseCaseConfig) validate() error {
	switch {
	case c.Symbols <= 0 || c.DataSymbols <= 0 || c.DataSymbols > c.Symbols:
		return fmt.Errorf("bench: use case symbols %d/%d invalid", c.Symbols, c.DataSymbols)
	case c.NFFT < 16:
		return fmt.Errorf("bench: NFFT %d too small", c.NFFT)
	case c.NR <= 0 || c.NB <= 0 || c.NL <= 0 || c.NL > 4:
		return fmt.Errorf("bench: antenna/beam/UE dims invalid")
	case c.CholPerRound <= 0:
		return fmt.Errorf("bench: CholPerRound must be positive")
	}
	return nil
}

// workingSet is the words the largest of the experiment's machines
// holds, doubled for allocation slack as in the Fig. 8/9 runners: the
// FFT buffers (as RunFFT counts them) chained into the beamforming
// product, or the replicated Cholesky batch. The serial baselines and
// the full MIMO stage fit within the former.
func (c *UseCaseConfig) workingSet() int {
	frontEnd := c.NR*c.NFFT + 3*c.NFFT/4 + c.NFFT + c.NR*c.NB + c.NFFT*c.NB
	decs := c.Cluster.NumCores() * c.CholPerRound * c.NL * c.NL
	return 2 * max(frontEnd, decs)
}

// RunUseCase executes the Fig. 9c experiment on freshly built machines.
func RunUseCase(cfg UseCaseConfig) (*UseCaseResult, error) {
	return RunUseCaseOn(nil, cfg)
}

// RunUseCaseOn executes the Fig. 9c experiment, drawing every machine it
// needs from pool (nil builds them fresh). Each independent kernel
// measurement checks one machine out and returns it before the next, so
// a sweep over many use-case variants allocates each cluster arena once.
func RunUseCaseOn(pool *engine.Machines, cfg UseCaseConfig) (*UseCaseResult, error) {
	if pool == nil {
		pool = engine.NewMachines()
	}
	if cfg.Cluster == nil {
		cfg.Cluster = DefaultUseCase().Cluster
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cluster := deepen(cfg.Cluster, cfg.workingSet())
	rng := rand.New(rand.NewPCG(2023, 1203))

	m := pool.Get(cluster)
	fftRep, mmmRep, err := measureFrontEnd(m, cfg, rng)
	pool.Put(m)
	if err != nil {
		return nil, err
	}

	// One bare-Cholesky pass runs CholPerRound decompositions per core;
	// one full-MIMO pass detects every subcarrier of one data symbol.
	cores := cluster.NumCores()
	perSymbol := (cfg.NFFT + cores - 1) / cores // decompositions per core per data symbol
	cholName, cholPasses := "MIMO Cholesky", (cfg.DataSymbols*perSymbol+cfg.CholPerRound-1)/cfg.CholPerRound
	measureMIMO := measureChol
	if cfg.FullMIMO {
		cholName, cholPasses = "MIMO stage", cfg.DataSymbols
		measureMIMO = measureFullMIMO
	}
	m = pool.Get(cluster)
	cholRep, err := measureMIMO(m, cfg, rng)
	pool.Put(m)
	if err != nil {
		return nil, err
	}

	res := &UseCaseResult{
		FFT:  kernelTiming("OFDM FFT", fftRep, cfg.Symbols),
		MMM:  kernelTiming("BF MMM", mmmRep, cfg.Symbols),
		Chol: kernelTiming(cholName, cholRep, cholPasses),
	}
	res.TotalCycles = res.FFT.Total + res.MMM.Total + res.Chol.Total
	res.TimeMs = float64(res.TotalCycles) / 1e6

	if cfg.WithSerial {
		serial, err := useCaseSerial(pool, cluster, cfg, rng)
		if err != nil {
			return nil, err
		}
		res.SerialCycles = serial
		res.Speedup = float64(serial) / float64(res.TotalCycles)
	}
	return res, nil
}

// measureFrontEnd times one symbol's FFTs over every antenna and the
// beamforming MMM chained onto their output.
func measureFrontEnd(m *engine.Machine, cfg UseCaseConfig, rng *rand.Rand) (fftRep, mmmRep engine.Report, err error) {
	batch, err := fft.Batch(cfg.NFFT, cfg.NR, m.Cfg.NumCores())
	if err != nil {
		return fftRep, mmmRep, fmt.Errorf("bench: use-case FFT: %w", err)
	}
	fftPlan, err := newFFT(m, rng, cfg.NFFT, cfg.NR, batch, fft.Folded)
	if err != nil {
		return fftRep, mmmRep, fmt.Errorf("bench: use-case FFT: %w", err)
	}
	fftOut := fftPlan.OutBase(0)
	bfPlan, err := mmm.NewPlan(m, cfg.NFFT, cfg.NR, cfg.NB, m.Cfg.NumCores(), mmm.Options{
		AExternal:   &fftOut,
		ATransposed: true,
	})
	if err != nil {
		return fftRep, mmmRep, fmt.Errorf("bench: use-case MMM: %w", err)
	}
	if err := bfPlan.WriteB(randC15(rng, cfg.NR*cfg.NB)); err != nil {
		return fftRep, mmmRep, err
	}
	if fftRep, err = measureWarm(m, "fft", nil, fftPlan.Run); err != nil {
		return fftRep, mmmRep, err
	}
	mmmRep, err = measureWarm(m, "mmm", nil, bfPlan.Run)
	return fftRep, mmmRep, err
}

// measureChol times one round of the replicated bare decompositions:
// CholPerRound per core.
func measureChol(m *engine.Machine, cfg UseCaseConfig, rng *rand.Rand) (engine.Report, error) {
	pl, err := newReplicatedChol(m, rng, cfg.NL, cfg.CholPerRound)
	if err != nil {
		return engine.Report{}, fmt.Errorf("bench: use-case Cholesky: %w", err)
	}
	return measureWarm(m, "chol", nil, pl.Run)
}

// measureFullMIMO times one data symbol's complete MIMO stage: Gramian,
// matched filter, Cholesky and the two triangular solves per subcarrier,
// gathered from a synthetic channel-estimate grid.
func measureFullMIMO(m *engine.Machine, cfg UseCaseConfig, rng *rand.Rand) (engine.Report, error) {
	hBase, err := m.Mem.AllocSeq(cfg.NFFT * cfg.NB)
	if err != nil {
		return engine.Report{}, fmt.Errorf("bench: full-MIMO h grid: %w", err)
	}
	for i, v := range randC15(rng, cfg.NFFT*cfg.NB) {
		m.Mem.Write(hBase+arch.Addr(i), uint32(v)&0x7fff7fff) // keep amplitudes moderate
	}
	sigmaAddr, err := m.Mem.AllocSeq(1)
	if err != nil {
		return engine.Report{}, err
	}
	m.Mem.Write(sigmaAddr, uint32(fixed.Pack(fixed.FloatToQ15(0.05), 0)))
	plan, err := mimo.NewPlan(m, cfg.NFFT, cfg.NB, cfg.NL, m.Cfg.NumCores(),
		func(sc, b int) arch.Addr { return hBase + arch.Addr(sc*cfg.NB+b) }, sigmaAddr, nil)
	if err != nil {
		return engine.Report{}, fmt.Errorf("bench: full-MIMO plan: %w", err)
	}
	if err := plan.WriteY(randC15(rng, cfg.NFFT*cfg.NB)); err != nil {
		return engine.Report{}, err
	}
	return measureWarm(m, "mimo", nil, plan.Run)
}

// useCaseSerial measures the single-core baseline of the same slot: one
// serial pass per kernel, each on its own machine, scaled by the
// per-slot repetition counts.
func useCaseSerial(pool *engine.Machines, cluster *arch.Config, cfg UseCaseConfig, rng *rand.Rand) (int64, error) {
	m := pool.Get(cluster)
	fftRep, err := serialFFT(m, rng, cfg.NFFT)
	pool.Put(m)
	if err != nil {
		return 0, err
	}
	m = pool.Get(cluster)
	bf := MMMConfig{M: cfg.NFFT, N: cfg.NR, P: cfg.NB}
	mmmRep, err := serialMMM(m, bf, randC15(rng, bf.M*bf.N), randC15(rng, bf.N*bf.P), true)
	pool.Put(m)
	if err != nil {
		return 0, err
	}
	const serialDecs = 32
	m = pool.Get(cluster)
	cholRep, err := serialChol(m, rng, cfg.NL, serialDecs)
	pool.Put(m)
	if err != nil {
		return 0, err
	}
	return fftRep.Wall*int64(cfg.NR*cfg.Symbols) +
		mmmRep.Wall*int64(cfg.Symbols) +
		cholRep.Wall*int64(cfg.DataSymbols*cfg.NFFT)/serialDecs, nil
}

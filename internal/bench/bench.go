// Package bench contains the experiment runners that regenerate the
// paper's evaluation figures: per-kernel IPC and stall breakdowns
// (Fig. 8), speedups and cycle counts against a serial single-core
// baseline (Fig. 9a-b), the Fig. 9c use-case slot budget, and the
// supporting ablations. cmd/kernelbench, cmd/puschsim, the campaign
// engine and the repository's testing.B benchmarks drive this package.
package bench

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/fixed"
	"repro/internal/kernels/chol"
	"repro/internal/kernels/fft"
	"repro/internal/kernels/mmm"
	"repro/internal/phy"
	"repro/internal/report"
)

// Result is one kernel configuration's measurement.
type Result struct {
	Label     string
	Kernel    string // kernel family: "fft", "mmm" or "chol"
	Cluster   string
	CoresUsed int

	Parallel engine.Report
	// SerialWall is the projected single-core cycle count for the same
	// total work (measured on a small batch and scaled; the scaling
	// factor is exact because the serial kernel is loop-invariant).
	SerialWall int64
	SerialIPC  float64
}

// Record converts the measurement into its typed telemetry record, the
// unit cmd/kernelbench emits as JSON and cmd/benchgate diffs against the
// committed baselines.
func (r *Result) Record() report.KernelRecord {
	return report.KernelRecord{
		Kernel:       r.Kernel,
		Label:        r.Label,
		Cluster:      r.Cluster,
		CoresUsed:    r.CoresUsed,
		Parallel:     report.NewWindow(r.Parallel),
		SerialCycles: r.SerialWall,
		SerialIPC:    r.SerialIPC,
		Speedup:      r.Speedup(),
		Utilization:  r.Utilization(),
	}
}

// Speedup returns the Fig. 9 speedup.
func (r *Result) Speedup() float64 {
	if r.Parallel.Wall == 0 {
		return 0
	}
	return float64(r.SerialWall) / float64(r.Parallel.Wall)
}

// Utilization is speedup over cores used.
func (r *Result) Utilization() float64 {
	if r.CoresUsed == 0 {
		return 0
	}
	return r.Speedup() / float64(r.CoresUsed)
}

// deepen returns a copy of cfg whose banks are deepened enough to hold
// need words, mirroring the DMA-fed double buffering the paper assumes
// for working sets beyond physical L1. Timing is unaffected: only bank
// capacity grows.
func deepen(cfg *arch.Config, need int) *arch.Config {
	c := *cfg
	for c.MemWords() < need {
		c.BankWords *= 2
	}
	return &c
}

// measureCold reports one pass of fn over the given cores (nil = the
// whole cluster; serial baselines pass core0 so idle cores do not
// dilute the wall window or the stall totals).
func measureCold(m *engine.Machine, name string, cores []int, fn func() error) (engine.Report, error) {
	mark := m.Mark()
	if err := fn(); err != nil {
		return engine.Report{}, err
	}
	return m.ReportSince(mark, name, cores), nil
}

// measureWarm runs fn once, synchronizes the cluster and reports the
// second pass, so the one-time instruction-cache refills do not
// pollute the figure.
func measureWarm(m *engine.Machine, name string, cores []int, fn func() error) (engine.Report, error) {
	if err := fn(); err != nil {
		return engine.Report{}, err
	}
	m.ClusterBarrier()
	return measureCold(m, name, cores, fn)
}

// core0 scopes a serial-baseline measurement to the core actually
// executing it: with nil (whole-cluster) scoping the wall window and
// stall totals include every idle core, which skews serial IPC.
var core0 = []int{0}

// randC15 draws n packed random samples: timing filler, since data
// values never influence the cycle model, only addresses do.
func randC15(rng *rand.Rand, n int) []fixed.C15 {
	out := make([]fixed.C15, n)
	for i := range out {
		out[i] = fixed.Pack(int16(rng.IntN(1<<16)-1<<15), int16(rng.IntN(1<<16)-1<<15))
	}
	return out
}

// randGramian builds a well-conditioned packed n x n Gramian.
func randGramian(rng *rand.Rand, n int) []fixed.C15 {
	nb := 2 * n
	h := make([]fixed.C15, nb*n)
	for i := range h {
		h[i] = fixed.Pack(
			int16(float64(rng.IntN(1<<16)-1<<15)*0.6),
			int16(float64(rng.IntN(1<<16)-1<<15)*0.6),
		)
	}
	shift := uint(1)
	for 1<<shift < nb {
		shift++
	}
	return phy.Gramian(h, nb, n, shift+1, fixed.FloatToQ15(0.05))
}

// newFFT plans count n-point FFTs on every core, batch per lane set
// between barriers, with random inputs.
func newFFT(m *engine.Machine, rng *rand.Rand, n, count, batch int, lay fft.Layout) (*fft.Plan, error) {
	pl, err := fft.NewPlan(m, n, count, batch, lay)
	if err != nil {
		return nil, err
	}
	for j := 0; j < pl.Jobs; j++ {
		for b := 0; b < pl.Batch; b++ {
			if err := pl.WriteInput(j, b, randC15(rng, n)); err != nil {
				return nil, err
			}
		}
	}
	return pl, nil
}

// newMMM plans the mc product on the first cores cores with inputs a
// and b.
func newMMM(m *engine.Machine, mc MMMConfig, cores int, opt mmm.Options, a, b []fixed.C15) (*mmm.Plan, error) {
	pl, err := mmm.NewPlan(m, mc.M, mc.N, mc.P, cores, opt)
	if err != nil {
		return nil, err
	}
	if err := pl.WriteA(a); err != nil {
		return nil, err
	}
	if err := pl.WriteB(b); err != nil {
		return nil, err
	}
	return pl, nil
}

// newReplicatedChol plans n x n Cholesky decompositions replicated on
// every core, perRound per core between barriers, with random Gramians.
func newReplicatedChol(m *engine.Machine, rng *rand.Rand, n, perRound int) (*chol.ReplicatedPlan, error) {
	cores := m.Cfg.NumCores()
	pl, err := chol.NewReplicatedPlan(m, n, cores, 1, perRound)
	if err != nil {
		return nil, err
	}
	for lane := 0; lane < cores; lane++ {
		for rep := 0; rep < perRound; rep++ {
			if err := pl.WriteG(lane, rep, randGramian(rng, n)); err != nil {
				return nil, err
			}
		}
	}
	return pl, nil
}

// serialFFT times one n-point transform on core 0 (warm): the serial
// FFT baseline, scaled by the caller to its transform count.
func serialFFT(m *engine.Machine, rng *rand.Rand, n int) (engine.Report, error) {
	pl, err := fft.NewSerialPlan(m, 0, n, 1)
	if err != nil {
		return engine.Report{}, err
	}
	if err := pl.WriteInput(randC15(rng, n)); err != nil {
		return engine.Report{}, err
	}
	return measureWarm(m, "fft-serial", core0, pl.Run)
}

// serialMMM times the mc product on core 0: the serial MMM baseline.
// The pass is long (tens of millions of instructions for the paper's
// shapes), so a cold pass differs from a warm one only by the
// negligible instruction-cache refill; warm picks the second.
func serialMMM(m *engine.Machine, mc MMMConfig, a, b []fixed.C15, warm bool) (engine.Report, error) {
	pl, err := newMMM(m, mc, 1, mmm.Options{}, a, b)
	if err != nil {
		return engine.Report{}, err
	}
	measure := measureCold
	if warm {
		measure = measureWarm
	}
	return measure(m, "mmm-serial", core0, pl.Run)
}

// serialChol times a batch of decs n x n decompositions on core 0
// (warm): the serial Cholesky baseline, scaled by the caller to its
// decomposition count.
func serialChol(m *engine.Machine, rng *rand.Rand, n, decs int) (engine.Report, error) {
	pl, err := chol.NewSerialPlan(m, 0, n, decs)
	if err != nil {
		return engine.Report{}, err
	}
	for rep := 0; rep < decs; rep++ {
		if err := pl.WriteG(rep, randGramian(rng, n)); err != nil {
			return engine.Report{}, err
		}
	}
	return measureWarm(m, "chol-serial", core0, pl.Run)
}

// FFTConfig names one Fig. 8a / Fig. 9 FFT experiment.
type FFTConfig struct {
	Label string
	N     int
	Count int
	Batch int
}

// PaperFFTConfigs returns the paper's three FFT configurations for a
// cluster: all-cores independent 256-point FFTs, the largest 4096-point
// transforms, and the batched variant that amortizes barriers.
func PaperFFTConfigs(cfg *arch.Config) []FFTConfig {
	cores := cfg.NumCores()
	return []FFTConfig{
		{Label: fmt.Sprintf("%d FFTs 256-pt", cores/16), N: 256, Count: cores / 16, Batch: 1},
		{Label: fmt.Sprintf("%d FFT(s) 4096-pt", cores/256), N: 4096, Count: cores / 256, Batch: 1},
		{Label: fmt.Sprintf("%dx16 FFTs 4096-pt", cores/256), N: 4096, Count: 16 * (cores / 256), Batch: 16},
	}
}

// RunFFT measures one FFT configuration: warm parallel pass plus a
// scaled serial baseline.
func RunFFT(cfg *arch.Config, fc FFTConfig) (*Result, error) {
	rng := rand.New(rand.NewPCG(uint64(fc.N), uint64(fc.Count)))
	// Working set: folded buffers live in tile rows; outputs and
	// twiddles in the sequential arena.
	need := fc.Count*fc.N + 3*fc.N/4 + fc.N
	mach := engine.NewMachine(deepen(cfg, need*2))
	pl, err := newFFT(mach, rng, fc.N, fc.Count, fc.Batch, fft.Folded)
	if err != nil {
		return nil, err
	}
	par, err := measureWarm(mach, "fft", nil, pl.Run)
	if err != nil {
		return nil, err
	}
	ser, err := serialFFT(engine.NewMachine(cfg), rng, fc.N)
	if err != nil {
		return nil, err
	}
	return &Result{
		Label:      fc.Label,
		Kernel:     "fft",
		Cluster:    cfg.Name,
		CoresUsed:  pl.Jobs * pl.Lanes,
		Parallel:   par,
		SerialWall: ser.Wall * int64(fc.Count),
		SerialIPC:  ser.IPC(),
	}, nil
}

// MMMConfig names one Fig. 8b / Fig. 9 MMM experiment.
type MMMConfig struct {
	Label   string
	M, N, P int
}

// PaperMMMConfigs returns the paper's three MMM shapes.
func PaperMMMConfigs() []MMMConfig {
	return []MMMConfig{
		{Label: "128x128x128 MMM", M: 128, N: 128, P: 128},
		{Label: "256x128x256 MMM", M: 256, N: 128, P: 256},
		{Label: "4096x64x32 MMM", M: 4096, N: 64, P: 32},
	}
}

// RunMMM measures one MMM configuration on the whole cluster plus the
// serial baseline (one cold pass).
func RunMMM(cfg *arch.Config, mc MMMConfig) (*Result, error) {
	rng := rand.New(rand.NewPCG(uint64(mc.M), uint64(mc.P)))
	need := 2 * (mc.M*mc.N + mc.N*mc.P + mc.M*mc.P)
	cluster := deepen(cfg, need)

	mach := engine.NewMachine(cluster)
	a := randC15(rng, mc.M*mc.N)
	b := randC15(rng, mc.N*mc.P)
	pl, err := newMMM(mach, mc, cluster.NumCores(), mmm.Options{}, a, b)
	if err != nil {
		return nil, err
	}
	par, err := measureWarm(mach, "mmm", nil, pl.Run)
	if err != nil {
		return nil, err
	}
	ser, err := serialMMM(engine.NewMachine(cluster), mc, a, b, false)
	if err != nil {
		return nil, err
	}
	return &Result{
		Label:      mc.Label,
		Kernel:     "mmm",
		Cluster:    cfg.Name,
		CoresUsed:  cluster.NumCores(),
		Parallel:   par,
		SerialWall: ser.Wall,
		SerialIPC:  ser.IPC(),
	}, nil
}

// CholConfig names one Fig. 8c / Fig. 9 Cholesky experiment.
type CholConfig struct {
	Label    string
	Size     int // 4 (replicated) or 32 (mirrored pairs)
	PerRound int // replicated mode: decompositions per barrier
	Pairs    int // pair mode: number of mirrored pairs
}

// PaperCholConfigs returns the paper's three Cholesky configurations.
func PaperCholConfigs(cfg *arch.Config) []CholConfig {
	cores := cfg.NumCores()
	return []CholConfig{
		{Label: fmt.Sprintf("4x%d Chol 4x4", cores), Size: 4, PerRound: 4},
		{Label: fmt.Sprintf("16x%d Chol 4x4", cores), Size: 4, PerRound: 16},
		{Label: fmt.Sprintf("2x%d Chol 32x32", cores/8), Size: 32, Pairs: cores / 8},
	}
}

// RunChol measures one Cholesky configuration.
func RunChol(cfg *arch.Config, cc CholConfig) (*Result, error) {
	rng := rand.New(rand.NewPCG(uint64(cc.Size), uint64(cc.PerRound+cc.Pairs)))
	var par engine.Report
	var coresUsed, totalDecs int
	switch {
	case cc.Pairs > 0:
		need := 2 * cc.Pairs * (2*cc.Size*cc.Size + cc.Size*cc.Size)
		mach := engine.NewMachine(deepen(cfg, need))
		pl, err := chol.NewPairPlan(mach, cc.Size, cc.Pairs)
		if err != nil {
			return nil, err
		}
		for pr := 0; pr < cc.Pairs; pr++ {
			for q := 0; q < 2; q++ {
				if err := pl.WriteG(pr, q, randGramian(rng, cc.Size)); err != nil {
					return nil, err
				}
			}
		}
		par, err = measureWarm(mach, "chol-pair", nil, pl.Run)
		if err != nil {
			return nil, err
		}
		coresUsed = cc.Pairs * pl.Lanes
		totalDecs = 2 * cc.Pairs
	default:
		cores := cfg.NumCores()
		need := 2 * cores * cc.PerRound * cc.Size * cc.Size
		mach := engine.NewMachine(deepen(cfg, need))
		pl, err := newReplicatedChol(mach, rng, cc.Size, cc.PerRound)
		if err != nil {
			return nil, err
		}
		par, err = measureWarm(mach, "chol-rep", nil, pl.Run)
		if err != nil {
			return nil, err
		}
		coresUsed = cores
		totalDecs = cores * cc.PerRound
	}

	// Serial baseline: a small batch, scaled to the total decomposition
	// count.
	const serialBatch = 8
	ser, err := serialChol(engine.NewMachine(cfg), rng, cc.Size, serialBatch)
	if err != nil {
		return nil, err
	}
	return &Result{
		Label:      cc.Label,
		Kernel:     "chol",
		Cluster:    cfg.Name,
		CoresUsed:  coresUsed,
		Parallel:   par,
		SerialWall: ser.Wall * int64(totalDecs) / serialBatch,
		SerialIPC:  ser.IPC(),
	}, nil
}

package bench

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/kernels/fft"
	"repro/internal/kernels/mmm"
)

// RunMMMWindow measures the Section V-B register-blocking ablation: the
// mc product on all cores with output window idx 0 (4x4), 1 (4x2) or
// 2 (2x2), on the warm second pass or the cold first one.
func RunMMMWindow(cfg *arch.Config, mc MMMConfig, idx int, warm bool) (*Result, error) {
	windows := []mmm.Window{mmm.Win4x4, mmm.Win4x2, mmm.Win2x2}
	if idx < 0 || idx >= len(windows) {
		return nil, fmt.Errorf("bench: window index %d out of range", idx)
	}
	w := windows[idx]
	rng := rand.New(rand.NewPCG(77, uint64(idx)))
	mach := engine.NewMachine(cfg)
	pl, err := newMMM(mach, mc, cfg.NumCores(), mmm.Options{Window: w},
		randC15(rng, mc.M*mc.N), randC15(rng, mc.N*mc.P))
	if err != nil {
		return nil, err
	}
	measure := measureCold
	if warm {
		measure = measureWarm
	}
	par, err := measure(mach, "mmm-window", nil, pl.Run)
	if err != nil {
		return nil, err
	}
	return &Result{
		Label:      fmt.Sprintf("%dx%d window", w.Rows, w.Cols),
		Kernel:     "mmm",
		Cluster:    cfg.Name,
		CoresUsed:  cfg.NumCores(),
		Parallel:   par,
		SerialWall: par.Wall, // ablation compares parallel variants only
		SerialIPC:  0,
	}, nil
}

// RunFFTLayout measures the Section V-A folding ablation: one cold pass
// of four 1024-point FFTs with the given buffer layout. It also returns
// the bank-conflict cycles the machine accumulated.
func RunFFTLayout(cfg *arch.Config, lay fft.Layout) (engine.Report, int64, error) {
	rng := rand.New(rand.NewPCG(3, 4))
	mach := engine.NewMachine(cfg)
	pl, err := newFFT(mach, rng, 1024, 4, 1, lay)
	if err != nil {
		return engine.Report{}, 0, err
	}
	rep, err := measureCold(mach, "fft", nil, pl.Run)
	return rep, mach.Mem.Res.ConflictCycles(), err
}

// RunCholPipe measures one cold pass of the replicated 4x4 Cholesky at
// 16 decompositions per barrier, element by element or in the
// software-pipelined pair schedule that hides the divide/sqrt latency
// (the likely mechanism behind the paper's 0.71 IPC for the batched
// configuration).
func RunCholPipe(cfg *arch.Config, pipelined bool) (engine.Report, error) {
	rng := rand.New(rand.NewPCG(9, 9))
	mach := engine.NewMachine(cfg)
	pl, err := newReplicatedChol(mach, rng, 4, 16)
	if err != nil {
		return engine.Report{}, err
	}
	pl.Pipelined = pipelined
	return measureCold(mach, "chol", nil, pl.Run)
}

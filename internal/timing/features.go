package timing

import "repro/internal/pusch"

// The per-repetition feature bases below mirror — in closed form — the
// work-distribution arithmetic of the kernels' own job planners. They
// are evaluated on normalized configurations only (pusch.
// ChainConfig.Normalized), so the divisibility and range invariants the
// planners rely on (NSC a power of four, NR and NB multiples of four,
// lanes <= cores) already hold.

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// fftBatch mirrors the FFT planner's batching choice: one NSC-point
// folded radix-4 FFT occupies NSC/16 lanes, the cluster fits
// cores/(NSC/16) concurrent transforms, and the NR transforms are run
// in batch rounds sized to divide NR evenly.
func fftBatch(nsc, nr, cores int) int {
	lanes := nsc / 16
	maxJobs := cores / lanes
	if maxJobs == 0 {
		return 0
	}
	batch := ceilDiv(nr, maxJobs)
	for nr%batch != 0 {
		batch++
	}
	return batch
}

// bfMaxWindows mirrors the beamforming MMM's 4x4-window partitioning
// (kernels/mmm rowBlocks/colBlocks): the NSC x NB output splits into
// (NSC/4) x (NB/4) windows dealt across the lanes, and the stage's
// critical path is the most-loaded lane's window count. With fewer
// lanes than row blocks, lane 0 owns the most row blocks and every
// column block; otherwise lanes split into blocksM rank groups and the
// busiest lane is a rank-0 lane sharing the column blocks with the
// fewest peers, lanes/blocksM of them.
func bfMaxWindows(nsc, nb, lanes int) int {
	blocksM, blocksP := nsc/4, nb/4
	if lanes <= 0 || blocksP <= 0 {
		return 0
	}
	if lanes < blocksM {
		return ceilDiv(blocksM, lanes) * blocksP
	}
	return ceilDiv(blocksP, lanes/blocksM)
}

// maxFeatures is the widest per-stage feature basis (MIMO's).
const maxFeatures = 7

// basis is one stage's per-repetition feature vector, held by value so
// a prediction allocates nothing for it; terms returns the live ones.
type basis struct {
	x [maxFeatures]float64
	n int
}

func (b *basis) terms() []float64 { return b.x[:b.n] }

func vec(xs ...float64) (b basis) {
	b.n = copy(b.x[:], xs)
	return b
}

// reps returns how many times each stage's job is issued per slot, in
// pusch.Stages order: the repetition count that multiplies the
// per-repetition hinge. OFDM and beamforming run once per OFDM symbol,
// channel estimation once per pilot symbol, the noise combine once per
// slot, and MIMO detection once per data symbol.
func reps(cfg pusch.ChainConfig) [stageCount]float64 {
	return [stageCount]float64{
		float64(cfg.NSymb),
		float64(cfg.NSymb),
		float64(cfg.NPilot),
		1,
		float64(cfg.NSymb - cfg.NPilot),
	}
}

// features returns each stage's per-repetition work basis, in
// pusch.Stages order: the terms whose calibrated linear combination is
// the work arm of the hinge. NSC only takes the three values of the
// calibration classes (64, 256, 1024 — the functional path is
// memory-bound beyond that), so NSC-dependent occupancy and contention
// effects fold into the per-class coefficients instead of appearing as
// terms.
//
//   - OFDM: linear in the FFT batch depth (rounds of concurrent
//     transforms).
//   - BF: the busiest lane's 4x4-window count, each window an NR-deep
//     MAC reduction.
//   - CHE and NE: per-lane work over ceil(NSC/cores) subcarriers times
//     NB beams, plus the serial lane-0 reduction folded into the class
//     constant.
//   - MIMO: the per-subcarrier detect decomposed by its loop nests —
//     Gramian (NL^2 * NB), matched filter (NL * NB), Cholesky (NL^3),
//     triangular solves (NL^2) — on the busiest lane's ceil(NSC/cores)
//     subcarriers.
func features(cfg pusch.ChainConfig, cores int) [stageCount]basis {
	nsc, nr, nb, nl := cfg.NSC, cfg.NR, cfg.NB, cfg.NL
	batch := float64(fftBatch(nsc, nr, cores))
	wmax := float64(bfMaxWindows(nsc, nb, cores))
	spc := float64(ceilDiv(nsc, cores))
	fnl, fnb, fnr := float64(nl), float64(nb), float64(nr)
	return [stageCount]basis{
		vec(batch, 1),
		vec(wmax*fnr, wmax, 1),
		vec(spc*fnb, spc, 1),
		vec(spc*fnb, spc, 1),
		vec(spc*fnl*fnl*fnb, spc*fnl*fnb, spc*fnl*fnl*fnl, spc*fnl*fnl, spc*fnb, spc, 1),
	}
}

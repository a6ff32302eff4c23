package pusch

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/fixed"
	"repro/internal/kernels/chest"
	"repro/internal/kernels/fft"
	"repro/internal/kernels/mimo"
	"repro/internal/kernels/mmm"
	"repro/internal/obs"
	"repro/internal/waveform"
)

// Pipeline is the receive-side kernel stage of the functional chain: all
// kernel plans of one slot laid out on one machine. It is the second of
// the three separately callable chain stages (SlotTX, Pipeline, link
// metrics); RunChainOn composes them, and the campaign runner drives a
// Pipeline per scenario on a pooled, Reset machine.
//
// Execution follows the configured Layout. The sequential layout (the
// zero value) sizes every kernel to the whole cluster and runs the
// stages back to back, one OFDM symbol at a time, with a cluster-wide
// barrier between stages — the original chain. A pipelined layout
// instead gives each stage its own core partition and overlaps
// consecutive symbols: per beat, Machine.Run receives the FFT of symbol
// k, the beamforming of symbol k-1 and the detection of symbol k-2 as
// concurrent jobs on disjoint core sets. The inter-stage buffers (FFT
// output and beamformed grid) are double-buffered by symbol parity, and
// partitions hand results downstream through NotBefore timestamps — the
// per-partition handshake replacing the cluster-wide barrier.
type Pipeline struct {
	cfg   ChainConfig
	m     *engine.Machine
	batch int

	// Sequential layout: one plan per stage spanning the whole cluster.
	fftPlan  *fft.Plan
	bfPlan   *mmm.Plan
	mimoPlan *mimo.Plan

	// Pipelined layout: double-buffered plans, parity = symbol index & 1.
	fftPlans  [2]*fft.Plan
	bfPlans   [2]*mmm.Plan
	mimoPlans [2]*mimo.Plan

	// chestPlans is shared by both layouts: one plan per pilot symbol
	// (the pipelined layout binds plan i to beam-grid parity i&1).
	chestPlans []*chest.Plan
	comb       *combinePlan

	// Software-pipeline state: per-symbol finish times of each
	// partition's task, driving the NotBefore handshakes.
	finFFT  []int64
	finBF   []int64
	finDet  []int64
	finNE   int64
	issued  int // symbols fed into the pipe so far
	drained bool

	// live is the sorted union of every pipelined plan's job cores: the
	// only cores whose clocks advance during the slot.
	live []int

	start    int64
	detected []fixed.C15
	stages   map[Stage]engine.Report

	// trace, when non-nil, receives one stage-level span per measured
	// window (RunChainTracedOn sets it). Spans are pure observations —
	// they never feed back into timing.
	trace *obs.Trace
}

// NewPipeline plans every kernel of the receive chain on m according to
// cfg.Layout. cfg must already be defaulted and validated, and m must
// have been built for cfg.Cluster.
func NewPipeline(m *engine.Machine, cfg ChainConfig) (*Pipeline, error) {
	if *m.Cfg != *cfg.Cluster {
		return nil, fmt.Errorf("pusch: pipeline machine is a %s, config wants %s", m.Cfg.Name, cfg.Cluster.Name)
	}
	pl := &Pipeline{cfg: cfg, m: m, stages: make(map[Stage]engine.Report)}
	var err error
	if cfg.Layout.Pipelined() {
		err = pl.planPipelined()
	} else {
		err = pl.planSequential()
	}
	if err != nil {
		return nil, err
	}
	pl.start = m.Cycles()
	return pl, nil
}

// chainBeamWords returns the quantized unitary DFT beamforming matrix
// (r-major: bq[r*NB+b]), shared by both layouts' beamforming plans.
func chainBeamWords(cfg *ChainConfig) []fixed.C15 {
	w := waveform.DFTBeams(cfg.NB, cfg.NR)
	bq := make([]fixed.C15, cfg.NR*cfg.NB)
	for r := 0; r < cfg.NR; r++ {
		for b := 0; b < cfg.NB; b++ {
			bq[r*cfg.NB+b] = fixed.FromComplex(w.At(b, r))
		}
	}
	return bq
}

// chainPilotWords returns the quantized pilot sequence.
func chainPilotWords(cfg *ChainConfig) []fixed.C15 {
	pilots := chainPilots(cfg)
	pq := make([]fixed.C15, cfg.NSC)
	for sc := range pq {
		pq[sc] = fixed.FromComplex(pilots[sc])
	}
	return pq
}

// planSequential lays out the original single-symbol chain: every plan
// sized to the whole cluster, stages chained through shared buffers.
// The construction (and therefore the TCDM allocation sequence) is
// bit-identical to the pre-layout pipeline.
func (pl *Pipeline) planSequential() error {
	m, cfg := pl.m, &pl.cfg
	batch, err := cfg.fftBatch()
	if err != nil {
		return err
	}
	pl.batch = batch
	if pl.fftPlan, err = fft.NewPlan(m, cfg.NSC, cfg.NR, batch, fft.Folded); err != nil {
		return err
	}
	fftOut := pl.fftPlan.OutBase(0)
	pl.bfPlan, err = mmm.NewPlan(m, cfg.NSC, cfg.NR, cfg.NB, m.Cfg.NumCores(), mmm.Options{
		AExternal:   &fftOut,
		ATransposed: true,
		ZeroShift:   true,
	})
	if err != nil {
		return err
	}
	// Beamforming coefficients: unitary DFT beams, quantized.
	if err := pl.bfPlan.WriteB(chainBeamWords(cfg)); err != nil {
		return err
	}
	beamBase := pl.bfPlan.CBase()

	pq := chainPilotWords(cfg)
	pl.chestPlans = make([]*chest.Plan, cfg.NPilot)
	for i := range pl.chestPlans {
		p, err := chest.NewPlan(m, cfg.NSC, cfg.NB, cfg.NL, m.Cfg.NumCores(), &beamBase)
		if err != nil {
			return err
		}
		if err := p.WritePilots(pq); err != nil {
			return err
		}
		pl.chestPlans[i] = p
	}
	if pl.comb, err = newCombinePlan(m, pl.chestPlans[0], pl.chestPlans[1], nil); err != nil {
		return err
	}
	pl.mimoPlan, err = mimo.NewPlan(m, cfg.NSC, cfg.NB, cfg.NL, m.Cfg.NumCores(),
		pl.comb.HAddr, pl.comb.SigmaAddr(), &beamBase)
	if err != nil {
		return err
	}
	pl.mimoPlan.Interp = cfg.InterpolateChannel
	return nil
}

// planPipelined lays out the spatially pipelined chain: per-partition
// kernel plans with the two inter-stage regions (FFT output, beamformed
// grid) double-buffered by symbol parity, so symbol k's detection reads
// one buffer set while symbol k+1's producers fill the other.
func (pl *Pipeline) planPipelined() error {
	m, cfg := pl.m, &pl.cfg
	lay := &cfg.Layout
	batch, err := cfg.fftBatchOn(len(lay.FFT))
	if err != nil {
		return err
	}
	pl.batch = batch
	for p := range pl.fftPlans {
		if pl.fftPlans[p], err = fft.NewPlanOn(m, lay.FFT, cfg.NSC, cfg.NR, batch, fft.Folded); err != nil {
			return err
		}
	}
	bq := chainBeamWords(cfg)
	for p := range pl.bfPlans {
		out := pl.fftPlans[p].OutBase(0)
		pl.bfPlans[p], err = mmm.NewPlanOn(m, lay.BF, cfg.NSC, cfg.NR, cfg.NB, mmm.Options{
			AExternal:   &out,
			ATransposed: true,
			ZeroShift:   true,
		})
		if err != nil {
			return err
		}
		if err := pl.bfPlans[p].WriteB(bq); err != nil {
			return err
		}
	}
	pq := chainPilotWords(cfg)
	pl.chestPlans = make([]*chest.Plan, cfg.NPilot)
	for i := range pl.chestPlans {
		beam := pl.bfPlans[i&1].CBase()
		p, err := chest.NewPlanOn(m, lay.CHE, cfg.NSC, cfg.NB, cfg.NL, &beam)
		if err != nil {
			return err
		}
		if err := p.WritePilots(pq); err != nil {
			return err
		}
		pl.chestPlans[i] = p
	}
	if pl.comb, err = newCombinePlan(m, pl.chestPlans[0], pl.chestPlans[1], lay.NE); err != nil {
		return err
	}
	for p := range pl.mimoPlans {
		beam := pl.bfPlans[p].CBase()
		pl.mimoPlans[p], err = mimo.NewPlanOn(m, lay.MIMO, cfg.NSC, cfg.NB, cfg.NL,
			pl.comb.HAddr, pl.comb.SigmaAddr(), &beam)
		if err != nil {
			return err
		}
		pl.mimoPlans[p].Interp = cfg.InterpolateChannel
	}
	pl.finFFT = make([]int64, cfg.NSymb)
	pl.finBF = make([]int64, cfg.NSymb)
	pl.finDet = make([]int64, cfg.NSymb)
	pl.live = pl.liveCores()
	return nil
}

// liveCores returns the sorted union of the pipelined plans' job cores.
// Partition cores no plan enrolls (an FFT partition wider than the
// transforms' lane sets) never leave cycle 0, so they must not hold
// back reservation retirement.
func (pl *Pipeline) liveCores() []int {
	jobs := []engine.Job{pl.comb.Job()}
	for p := range pl.fftPlans {
		jobs = append(jobs, pl.fftPlans[p].JobsList()...)
		jobs = append(jobs, pl.bfPlans[p].Job())
		jobs = append(jobs, pl.mimoPlans[p].JobsList()...)
	}
	for _, cp := range pl.chestPlans {
		jobs = append(jobs, cp.JobsList()...)
	}
	enrolled := make([]bool, pl.m.Cfg.NumCores())
	for _, j := range jobs {
		for _, c := range j.Cores {
			enrolled[c] = true
		}
	}
	var live []int
	for c, ok := range enrolled {
		if ok {
			live = append(live, c)
		}
	}
	return live
}

// accumulate folds one measured window into the per-stage aggregate.
func (pl *Pipeline) accumulate(stage Stage, mark engine.Mark, name string, sym int) {
	pl.accumulateOn(stage, mark, name, nil, sym)
}

// accumulateOn folds one measured window over an explicit core set (the
// stage's partition; nil means the whole cluster) into the per-stage
// aggregate. Under a pipelined layout the window includes the
// partition's NotBefore wait, so a stage's Wall reads as partition
// occupancy and the per-stage walls of one slot overlap in time. When a
// trace is attached, the same window becomes one stage-level span named
// "<name> s<sym>" on the partition's track.
func (pl *Pipeline) accumulateOn(stage Stage, mark engine.Mark, name string, cores []int, sym int) {
	rep := pl.m.ReportSince(mark, name, cores)
	agg := pl.stages[stage]
	agg.Name = string(stage)
	agg.Cores = rep.Cores
	agg.Wall += rep.Wall
	agg.Stats.Add(rep.Stats)
	pl.stages[stage] = agg
	if pl.trace != nil {
		start, end := pl.m.WindowSince(mark, cores)
		pl.trace.Add(pl.trackFor(cores), fmt.Sprintf("%s s%d", name, sym), start, end)
	}
}

// trackFor names the trace track of a stage's core partition (nil means
// the whole cluster).
func (pl *Pipeline) trackFor(cores []int) string {
	if cores == nil {
		return obs.CoreTrack(0, pl.m.Cfg.NumCores()-1)
	}
	lo, hi := cores[0], cores[0]
	for _, c := range cores[1:] {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	return obs.CoreTrack(lo, hi)
}

// RunSymbol processes OFDM symbol s from its per-antenna time-domain
// samples: FFT and beamforming on every symbol, then channel estimation
// (plus the noise-estimate combine after the last pilot) on pilot
// symbols or MIMO detection on data symbols. Symbols must be run in
// order 0..NSymb-1. Under a pipelined layout the call feeds the symbol
// into the software pipeline (stages of up to three symbols execute
// concurrently on their partitions); call Drain after the last symbol
// to flush the pipe before reading Detected.
func (pl *Pipeline) RunSymbol(s int, rx [][]complex128) error {
	if pl.cfg.Layout.Pipelined() {
		return pl.runSymbolPipelined(s, rx)
	}
	return pl.runSymbolSequential(s, rx)
}

// runSymbolSequential is the original serial schedule: every stage on
// all cores, a cluster-wide barrier after each.
func (pl *Pipeline) runSymbolSequential(s int, rx [][]complex128) error {
	cfg := &pl.cfg
	for a := 0; a < cfg.NR; a++ {
		q := make([]fixed.C15, cfg.NSC)
		for i, v := range rx[a] {
			q[i] = fixed.FromComplex(v)
		}
		if err := pl.fftPlan.WriteInput(a/pl.batch, a%pl.batch, q); err != nil {
			return err
		}
	}
	mark := pl.m.Mark()
	if err := pl.fftPlan.Run(); err != nil {
		return err
	}
	pl.m.ClusterBarrier()
	pl.accumulate(StageOFDM, mark, "fft", s)

	mark = pl.m.Mark()
	if err := pl.bfPlan.Run(); err != nil {
		return err
	}
	pl.m.ClusterBarrier()
	pl.accumulate(StageBF, mark, "bf", s)

	switch {
	case s < cfg.NPilot:
		mark = pl.m.Mark()
		if err := pl.chestPlans[s].Run(); err != nil {
			return err
		}
		pl.m.ClusterBarrier()
		pl.accumulate(StageCHE, mark, "chest", s)
		if s == cfg.NPilot-1 {
			mark = pl.m.Mark()
			if err := pl.comb.Run(); err != nil {
				return err
			}
			pl.m.ClusterBarrier()
			pl.accumulate(StageNE, mark, "combine", s)
		}
	default:
		mark = pl.m.Mark()
		if err := pl.mimoPlan.Run(); err != nil {
			return err
		}
		pl.m.ClusterBarrier()
		pl.accumulate(StageMIMO, mark, "mimo", s)
		pl.detected = append(pl.detected, pl.mimoPlan.ReadX()...)
	}
	return nil
}

// runSymbolPipelined feeds symbol s into the software pipeline: the
// symbol's samples are staged into the parity FFT buffers, then one
// pipeline beat issues FFT(s), BF(s-1) and detection(s-2) concurrently.
func (pl *Pipeline) runSymbolPipelined(s int, rx [][]complex128) error {
	cfg := &pl.cfg
	if s != pl.issued {
		return fmt.Errorf("pusch: pipelined RunSymbol(%d) out of order, want %d", s, pl.issued)
	}
	if s >= cfg.NSymb {
		return fmt.Errorf("pusch: RunSymbol(%d) beyond the slot's %d symbols", s, cfg.NSymb)
	}
	if pl.drained {
		return fmt.Errorf("pusch: RunSymbol(%d) after Drain", s)
	}
	plan := pl.fftPlans[s&1]
	for a := 0; a < cfg.NR; a++ {
		q := make([]fixed.C15, cfg.NSC)
		for i, v := range rx[a] {
			q[i] = fixed.FromComplex(v)
		}
		if err := plan.WriteInput(a/pl.batch, a%pl.batch, q); err != nil {
			return err
		}
	}
	pl.issued = s + 1
	return pl.issueBeat(s)
}

// Drain flushes the software pipeline: after the last RunSymbol, the
// beamforming of the final symbol and the detection of the final two
// are still in flight. Sequential layouts have nothing in flight and
// return immediately. Drain is idempotent; RunChainOn calls it before
// scoring.
func (pl *Pipeline) Drain() error {
	if !pl.cfg.Layout.Pipelined() || pl.drained {
		return nil
	}
	last := pl.issued
	pl.drained = true
	for beat := last; beat < last+2; beat++ {
		if err := pl.issueBeat(beat); err != nil {
			return err
		}
	}
	return nil
}

// issueBeat runs one pipeline beat: the up-to-three stage tasks whose
// symbols are in flight, handed to Machine.Run as concurrent jobs on
// disjoint partitions. Cross-partition data dependencies (and the WAR
// hazards on the double-buffered regions) are enforced through each
// job's NotBefore: a consumer partition starts no earlier than its
// producer finished, and a producer reclaims a parity buffer no earlier
// than the previous consumer released it.
func (pl *Pipeline) issueBeat(beat int) error {
	cfg := &pl.cfg
	lay := &cfg.Layout
	sFFT, sBF, sDet := beat, beat-1, beat-2
	doFFT := sFFT >= 0 && sFFT < pl.issued
	doBF := sBF >= 0 && sBF < pl.issued
	doDet := sDet >= 0 && sDet < pl.issued

	var jobs []engine.Job
	if doFFT {
		var notBefore int64
		if sFFT >= 2 {
			// WAR: FFT(s) overwrites the parity output BF(s-2) read.
			notBefore = pl.finBF[sFFT-2]
		}
		for _, j := range pl.fftPlans[sFFT&1].JobsList() {
			j.NotBefore = notBefore
			jobs = append(jobs, j)
		}
	}
	if doBF {
		notBefore := pl.finFFT[sBF] // RAW: the FFT output of the same symbol
		if sBF >= 2 && pl.finDet[sBF-2] > notBefore {
			// WAR: BF(s) overwrites the parity grid detection(s-2) read.
			notBefore = pl.finDet[sBF-2]
		}
		j := pl.bfPlans[sBF&1].Job()
		j.NotBefore = notBefore
		jobs = append(jobs, j)
	}
	if doDet {
		notBefore := pl.finBF[sDet] // RAW: the beamformed grid of the same symbol
		if sDet < cfg.NPilot {
			for _, j := range pl.chestPlans[sDet].JobsList() {
				j.NotBefore = notBefore
				jobs = append(jobs, j)
			}
		} else {
			if pl.finNE > notBefore {
				notBefore = pl.finNE // RAW: averaged channel + sigma
			}
			for _, j := range pl.mimoPlans[sDet&1].JobsList() {
				j.NotBefore = notBefore
				jobs = append(jobs, j)
			}
		}
	}
	if len(jobs) == 0 {
		return nil
	}
	mark := pl.m.Mark()
	if err := pl.m.Run(jobs...); err != nil {
		return err
	}
	// No cluster-wide barrier ever runs in a pipelined slot, so retire
	// the bank-reservation pages every enrolled core has moved past
	// here, once per beat, to bound simulator memory.
	pl.m.TrimReservations(pl.live)
	if doFFT {
		pl.finFFT[sFFT] = pl.m.MaxTime(lay.FFT)
		pl.accumulateOn(StageOFDM, mark, "fft", lay.FFT, sFFT)
	}
	if doBF {
		pl.finBF[sBF] = pl.m.MaxTime(lay.BF)
		pl.accumulateOn(StageBF, mark, "bf", lay.BF, sBF)
	}
	if !doDet {
		return nil
	}
	if sDet >= cfg.NPilot {
		pl.finDet[sDet] = pl.m.MaxTime(lay.MIMO)
		pl.accumulateOn(StageMIMO, mark, "mimo", lay.MIMO, sDet)
		pl.detected = append(pl.detected, pl.mimoPlans[sDet&1].ReadX()...)
		return nil
	}
	pl.finDet[sDet] = pl.m.MaxTime(lay.CHE)
	pl.accumulateOn(StageCHE, mark, "chest", lay.CHE, sDet)
	if sDet == cfg.NPilot-1 {
		// Noise combine: needs both pilot estimates. On a layout where NE
		// shares the detection partition this serializes behind the chest
		// task by clock continuity; on a dedicated NE partition the
		// NotBefore handshake carries the dependency.
		mark = pl.m.Mark()
		j := pl.comb.Job()
		j.NotBefore = max(pl.finDet[0], pl.finDet[cfg.NPilot-1])
		if err := pl.m.Run(j); err != nil {
			return err
		}
		pl.finNE = pl.m.MaxTime(lay.NE)
		pl.accumulateOn(StageNE, mark, "combine", lay.NE, sDet)
	}
	return nil
}

// Cycles returns the simulated cycles spent in RunSymbol calls so far.
func (pl *Pipeline) Cycles() int64 { return pl.m.Cycles() - pl.start }

// Detected returns the accumulated MIMO-detected symbols, interleaved
// [dataSymbol][subcarrier][ue] in detection order. Pipelined layouts
// must Drain first, or the last symbols are still in flight.
func (pl *Pipeline) Detected() []fixed.C15 { return pl.detected }

// Stages returns the per-stage aggregated reports. Under a pipelined
// layout the stage walls measure partition occupancy (work plus
// handshake waits) and overlap in time, so they do not sum to the slot
// total the way sequential stages do.
func (pl *Pipeline) Stages() map[Stage]engine.Report { return pl.stages }

// Sigma returns the estimated noise variance after the pilot symbols
// have been processed.
func (pl *Pipeline) Sigma() float64 { return pl.comb.Sigma() }

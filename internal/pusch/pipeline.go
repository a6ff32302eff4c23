package pusch

import (
	"fmt"
	"slices"

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
// One beat executor runs both layouts. A pipelined layout gives each
// stage its own core partition and overlaps consecutive symbols: per
// beat, Machine.Run receives the FFT of symbol k, the beamforming of
// symbol k-1 and the detection of symbol k-2 as concurrent jobs on
// disjoint core sets. The inter-stage buffers (FFT output and beamformed
// grid) are double-buffered by symbol parity, and partitions hand
// results downstream through NotBefore timestamps — the per-partition
// handshake replacing the cluster-wide barrier. The sequential layout
// (the zero value) is the degenerate case: every partition is the whole
// cluster, there is one buffer set, and each stage task runs as its own
// beat closed by a cluster-wide barrier, behind which the handshakes
// are no-ops — the original chain.
type Pipeline struct {
	cfg   ChainConfig
	m     *engine.Machine
	batch int

	// nbuf is the number of inter-stage buffer sets: 1 for the
	// sequential layout, 2 for a pipelined one. Symbol s uses set s%nbuf.
	nbuf int
	// part holds each stage's core partition; the sequential layout
	// gives every stage the whole cluster. Trace tracks are named after
	// it.
	part Layout
	// meas holds the cores each stage is measured over: the partition
	// under the sequential layout, whose barriers move every core, and
	// the sorted union of the stage's job cores under a pipelined one,
	// so that partition cores no plan enrolls (an FFT partition wider
	// than the transforms' lane sets) never stretch a stage's window.
	meas Layout

	fftPlans  []*fft.Plan
	bfPlans   []*mmm.Plan
	mimoPlans []*mimo.Plan
	// chestPlans holds one plan per pilot symbol; plan i reads beam grid
	// i%nbuf.
	chestPlans []*chest.Plan
	comb       *combinePlan

	// Beat state: per-symbol finish times of each partition's task,
	// driving the NotBefore handshakes.
	finFFT  []int64
	finBF   []int64
	finDet  []int64
	finNE   int64
	issued  int // symbols fed in so far
	drained bool

	// live is the union of the meas sets: the only cores whose clocks
	// advance during a pipelined slot.
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
	if err := pl.plan(); err != nil {
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

// plan lays out the chain's kernel plans on the stage partitions, with
// the two inter-stage regions (FFT output, beamformed grid) held in nbuf
// buffer sets so that, when pipelined, symbol k's detection reads one
// set while symbol k+1's producers fill the other. With one buffer set
// the TCDM allocation sequence is the original sequential chain's:
// FFT, beamforming and its coefficients, both channel estimates, the
// combine, MIMO detection.
func (pl *Pipeline) plan() error {
	m, cfg := pl.m, &pl.cfg
	pl.nbuf, pl.part = 1, cfg.Layout
	if cfg.Layout.Pipelined() {
		pl.nbuf = 2
	} else {
		all := coreRange(0, m.Cfg.NumCores())
		pl.part = Layout{FFT: all, BF: all, CHE: all, NE: all, MIMO: all}
	}
	lay := &pl.part
	batch, err := cfg.fftBatchOn(len(lay.FFT))
	if err != nil {
		return err
	}
	pl.batch = batch
	pl.fftPlans = make([]*fft.Plan, pl.nbuf)
	for b := range pl.fftPlans {
		if pl.fftPlans[b], err = fft.NewPlanOn(m, lay.FFT, cfg.NSC, cfg.NR, batch, fft.Folded); err != nil {
			return err
		}
	}
	bq := chainBeamWords(cfg)
	pl.bfPlans = make([]*mmm.Plan, pl.nbuf)
	for b := range pl.bfPlans {
		out := pl.fftPlans[b].OutBase(0)
		pl.bfPlans[b], err = mmm.NewPlanOn(m, lay.BF, cfg.NSC, cfg.NR, cfg.NB, mmm.Options{
			AExternal:   &out,
			ATransposed: true,
			ZeroShift:   true,
		})
		if err != nil {
			return err
		}
		if err := pl.bfPlans[b].WriteB(bq); err != nil {
			return err
		}
	}
	pq := chainPilotWords(cfg)
	pl.chestPlans = make([]*chest.Plan, cfg.NPilot)
	for i := range pl.chestPlans {
		beam := pl.bfPlans[i%pl.nbuf].CBase()
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
	pl.mimoPlans = make([]*mimo.Plan, pl.nbuf)
	for b := range pl.mimoPlans {
		beam := pl.bfPlans[b].CBase()
		pl.mimoPlans[b], err = mimo.NewPlanOn(m, lay.MIMO, cfg.NSC, cfg.NB, cfg.NL,
			pl.comb.HAddr, pl.comb.SigmaAddr(), &beam)
		if err != nil {
			return err
		}
		pl.mimoPlans[b].Interp = cfg.InterpolateChannel
	}
	pl.finFFT = make([]int64, cfg.NSymb)
	pl.finBF = make([]int64, cfg.NSymb)
	pl.finDet = make([]int64, cfg.NSymb)
	if pl.nbuf == 1 {
		pl.meas = pl.part
		return nil
	}
	var fftJobs, bfJobs, cheJobs, mimoJobs []engine.Job
	for b := range pl.fftPlans {
		fftJobs = append(fftJobs, pl.fftPlans[b].JobsList()...)
		bfJobs = append(bfJobs, pl.bfPlans[b].Job())
		mimoJobs = append(mimoJobs, pl.mimoPlans[b].JobsList()...)
	}
	for _, p := range pl.chestPlans {
		cheJobs = append(cheJobs, p.JobsList()...)
	}
	pl.meas = Layout{
		FFT:  jobCores(fftJobs...),
		BF:   jobCores(bfJobs...),
		CHE:  jobCores(cheJobs...),
		NE:   jobCores(pl.comb.Job()),
		MIMO: jobCores(mimoJobs...),
	}
	pl.live = union(pl.meas.FFT, pl.meas.BF, pl.meas.CHE, pl.meas.NE, pl.meas.MIMO)
	return nil
}

// jobCores returns the sorted union of the jobs' cores.
func jobCores(jobs ...engine.Job) CoreSet {
	sets := make([][]int, len(jobs))
	for i, j := range jobs {
		sets[i] = j.Cores
	}
	return union(sets...)
}

// union returns the sorted union of core sets.
func union(sets ...[]int) CoreSet {
	var u CoreSet
	for _, set := range sets {
		u = append(u, set...)
	}
	slices.Sort(u)
	return slices.Compact(u)
}

// accumulate folds one measured window over a stage's cores into the
// per-stage aggregate and returns their finish time. Under a pipelined
// layout the window includes the NotBefore wait, so a stage's Wall
// reads as the occupancy of the cores it enrolls, and the per-stage
// walls of one slot overlap in time. When a trace is attached, the same
// window becomes one stage-level span named "<name> s<sym>" on the
// track of the stage's partition.
func (pl *Pipeline) accumulate(stage Stage, mark engine.Mark, name string, part, cores []int, sym int) int64 {
	rep := pl.m.ReportSince(mark, name, cores)
	agg := pl.stages[stage]
	agg.Name = string(stage)
	agg.Cores = rep.Cores
	agg.Wall += rep.Wall
	agg.Stats.Add(rep.Stats)
	pl.stages[stage] = agg
	if pl.trace != nil {
		start, end := pl.m.WindowSince(mark, cores)
		pl.trace.Add(trackFor(part), fmt.Sprintf("%s s%d", name, sym), start, end)
	}
	return pl.m.MaxTime(cores)
}

// trackFor names the trace track of a stage's core partition.
func trackFor(cores []int) string {
	return obs.CoreTrack(slices.Min(cores), slices.Max(cores))
}

// RunSymbol processes OFDM symbol s from its per-antenna time-domain
// samples (NR rows of NSC samples): FFT and beamforming on every symbol,
// then channel estimation (plus the noise-estimate combine after the
// last pilot) on pilot symbols or MIMO detection on data symbols.
// Symbols must be run in order 0..NSymb-1. The sequential layout runs
// the symbol's stages back to back; a pipelined layout feeds the symbol
// into the software pipeline (stages of up to three symbols execute
// concurrently on their partitions). Call Drain after the last symbol
// to flush the pipe before reading Detected.
func (pl *Pipeline) RunSymbol(s int, rx [][]complex128) error {
	cfg := &pl.cfg
	switch {
	case pl.drained:
		return fmt.Errorf("pusch: RunSymbol(%d) after Drain", s)
	case s != pl.issued:
		return fmt.Errorf("pusch: RunSymbol(%d) out of order, want %d", s, pl.issued)
	case s >= cfg.NSymb:
		return fmt.Errorf("pusch: RunSymbol(%d) beyond the slot's %d symbols", s, cfg.NSymb)
	case len(rx) != cfg.NR:
		return fmt.Errorf("pusch: RunSymbol(%d) got %d antennas, want %d", s, len(rx), cfg.NR)
	}
	for a, samples := range rx {
		if len(samples) != cfg.NSC {
			return fmt.Errorf("pusch: RunSymbol(%d) antenna %d has %d samples, want %d", s, a, len(samples), cfg.NSC)
		}
	}
	plan := pl.fftPlans[s%pl.nbuf]
	for a, samples := range rx {
		q := make([]fixed.C15, cfg.NSC)
		for i, v := range samples {
			q[i] = fixed.FromComplex(v)
		}
		if err := plan.WriteInput(a/pl.batch, a%pl.batch, q); err != nil {
			return err
		}
	}
	pl.issued = s + 1
	if pl.nbuf > 1 {
		return pl.beat(s, s-1, s-2)
	}
	if err := pl.beat(s, -1, -1); err != nil {
		return err
	}
	if err := pl.beat(-1, s, -1); err != nil {
		return err
	}
	return pl.beat(-1, -1, s)
}

// Drain flushes the software pipeline: after the last RunSymbol of a
// pipelined layout, the beamforming of the final symbol and the
// detection of the final two are still in flight. The sequential layout
// has nothing in flight. Drain is idempotent, and no symbol may follow
// it; RunChainOn calls it before scoring.
func (pl *Pipeline) Drain() error {
	if pl.drained {
		return nil
	}
	pl.drained = true
	if pl.nbuf == 1 {
		return nil
	}
	for b := pl.issued; b < pl.issued+2; b++ {
		if err := pl.beat(b, b-1, b-2); err != nil {
			return err
		}
	}
	return nil
}

// beat runs the FFT of symbol sFFT, the beamforming of sBF and the
// detection of sDet — whichever of them are in flight (fed in and not
// negative) — handed to Machine.Run as concurrent jobs on their
// partitions. Cross-partition data dependencies (and the WAR hazards on
// the buffer sets) are enforced through each job's NotBefore: a
// consumer partition starts no earlier than its producer finished, and
// a producer reclaims a buffer set no earlier than the previous
// consumer released it.
func (pl *Pipeline) beat(sFFT, sBF, sDet int) error {
	cfg, lay := &pl.cfg, &pl.part
	inFlight := func(s int) bool { return s >= 0 && s < pl.issued }
	doFFT, doBF, doDet := inFlight(sFFT), inFlight(sBF), inFlight(sDet)

	var jobs []engine.Job
	if doFFT {
		var notBefore int64
		if sFFT >= pl.nbuf {
			// WAR: FFT(s) overwrites the output BF(s-nbuf) read.
			notBefore = pl.finBF[sFFT-pl.nbuf]
		}
		jobs = gated(jobs, notBefore, pl.fftPlans[sFFT%pl.nbuf].JobsList()...)
	}
	if doBF {
		notBefore := pl.finFFT[sBF] // RAW: the FFT output of the same symbol
		if sBF >= pl.nbuf {
			// WAR: BF(s) overwrites the grid detection(s-nbuf) read.
			notBefore = max(notBefore, pl.finDet[sBF-pl.nbuf])
		}
		jobs = gated(jobs, notBefore, pl.bfPlans[sBF%pl.nbuf].Job())
	}
	if doDet {
		notBefore := pl.finBF[sDet] // RAW: the beamformed grid of the same symbol
		if sDet < cfg.NPilot {
			jobs = gated(jobs, notBefore, pl.chestPlans[sDet].JobsList()...)
		} else {
			// RAW: the averaged channel and sigma.
			jobs = gated(jobs, max(notBefore, pl.finNE), pl.mimoPlans[sDet%pl.nbuf].JobsList()...)
		}
	}
	if len(jobs) == 0 {
		return nil
	}
	mark := pl.m.Mark()
	if err := pl.m.Run(jobs...); err != nil {
		return err
	}
	pl.sync()
	if doFFT {
		pl.finFFT[sFFT] = pl.accumulate(StageOFDM, mark, "fft", lay.FFT, pl.meas.FFT, sFFT)
	}
	if doBF {
		pl.finBF[sBF] = pl.accumulate(StageBF, mark, "bf", lay.BF, pl.meas.BF, sBF)
	}
	switch {
	case !doDet:
		return nil
	case sDet >= cfg.NPilot:
		pl.finDet[sDet] = pl.accumulate(StageMIMO, mark, "mimo", lay.MIMO, pl.meas.MIMO, sDet)
		pl.detected = append(pl.detected, pl.mimoPlans[sDet%pl.nbuf].ReadX()...)
		return nil
	}
	pl.finDet[sDet] = pl.accumulate(StageCHE, mark, "chest", lay.CHE, pl.meas.CHE, sDet)
	if sDet < cfg.NPilot-1 {
		return nil
	}
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
	pl.sync()
	pl.finNE = pl.accumulate(StageNE, mark, "combine", lay.NE, pl.meas.NE, sDet)
	return nil
}

// gated appends jobs to dst, each held back until notBefore.
func gated(dst []engine.Job, notBefore int64, jobs ...engine.Job) []engine.Job {
	for _, j := range jobs {
		j.NotBefore = notBefore
		dst = append(dst, j)
	}
	return dst
}

// sync closes one Machine.Run. The sequential layout runs a cluster-wide
// barrier. No cluster-wide barrier runs in a pipelined slot, so it
// instead retires the bank-reservation pages every live core has moved past, to
// bound simulator memory.
func (pl *Pipeline) sync() {
	if pl.nbuf == 1 {
		pl.m.ClusterBarrier()
		return
	}
	pl.m.TrimReservations(pl.live)
}

// Cycles returns the simulated cycles spent in RunSymbol calls so far.
func (pl *Pipeline) Cycles() int64 { return pl.m.Cycles() - pl.start }

// Detected returns the accumulated MIMO-detected symbols, interleaved
// [dataSymbol][subcarrier][ue] in detection order. Pipelined layouts
// must Drain first, or the last symbols are still in flight.
func (pl *Pipeline) Detected() []fixed.C15 { return pl.detected }

// Stages returns the per-stage aggregated reports. Under a pipelined
// layout the stage walls measure the occupancy of the cores each stage
// enrolls (work plus handshake waits) and overlap in time, so they do
// not sum to the slot total the way sequential stages do.
func (pl *Pipeline) Stages() map[Stage]engine.Report { return pl.stages }

// Sigma returns the estimated noise variance after the pilot symbols
// have been processed.
func (pl *Pipeline) Sigma() float64 { return pl.comb.Sigma() }

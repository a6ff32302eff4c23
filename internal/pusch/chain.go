package pusch

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"repro/internal/arch"
	"repro/internal/channel"
	"repro/internal/engine"
	"repro/internal/fixed"
	"repro/internal/kernels/chest"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/waveform"
)

// ChainConfig describes one end-to-end functional run of the receive
// chain on the simulator: UE transmitters, a multipath MIMO channel and
// AWGN feed the full kernel pipeline, and the detected bits are compared
// with the transmitted ones.
type ChainConfig struct {
	Cluster *arch.Config

	NSC    int // subcarriers = FFT size (power of four)
	NR     int // receive antennas (multiple of 4)
	NB     int // beams (multiple of 4, <= NR)
	NL     int // UEs (<= 4)
	NSymb  int // OFDM symbols per slot
	NPilot int // pilot symbols (must be 2: the noise estimate differences them)

	Scheme   waveform.Scheme
	SNRdB    float64
	DataAmp  float64 // per-subcarrier data amplitude (default 0.25)
	PilotAmp float64 // pilot amplitude (default 0.5)
	Taps     int     // iid channel taps (default 4)
	Seed     uint64
	// Channel selects the fading model (internal/channel). The zero
	// value is the legacy iid draw — Taps equal-power Rayleigh taps drawn
	// fresh from Seed each slot, bit-identical to the pre-subsystem
	// behaviour. A non-legacy spec (TDL profile, Doppler, Rician K or a
	// pinned fading seed) evolves a per-UE link state on the channel time
	// axis instead.
	Channel channel.Spec
	// InterpolateChannel enables linear comb interpolation in the MIMO
	// stage (better tracking of frequency-selective channels at the cost
	// of extra loads and multiplies per gathered element).
	InterpolateChannel bool
	// Layout maps the chain stages onto core partitions. The zero value
	// is the sequential layout — every stage spans the whole cluster,
	// symbols run one at a time — and is cycle-identical to the
	// pre-layout chain. A pipelined layout executes the stages
	// concurrently on disjoint partitions with consecutive OFDM symbols
	// overlapped (see Layout).
	Layout Layout
	// Timing selects how the slot's cycle counts are produced: the
	// zero value runs the cycle-level engine, TimingAnalytic evaluates
	// the calibrated closed-form model (internal/timing) instead. The
	// engine entry points reject analytic configurations — resolving
	// the mode is the orchestration layers' job (campaign.Runner,
	// sched.Scheduler), which route analytic slots to the model and
	// everything else here.
	Timing TimingMode
}

// ChainResult summarizes a chain run.
type ChainResult struct {
	BER      float64
	EVMdB    float64
	SigmaEst float64

	TotalCycles int64
	TimeMs      float64 // at the paper's nominal 1 GHz clock

	// Stage reports aggregate cycles and stalls per chain stage across
	// all symbols.
	Stages map[Stage]engine.Report
}

// Record converts the result into its typed telemetry record: one
// SlotPhase per chain stage in processing order, plus the payload
// throughput the run's dimensions and modulation scheme sustain at the
// nominal 1 GHz clock.
func (r *ChainResult) Record(cfg ChainConfig) report.SlotRecord {
	cfg.setDefaults()
	dims := Dims{NSC: cfg.NSC, NSymb: cfg.NSymb, NPilot: cfg.NPilot, NR: cfg.NR, NB: cfg.NB, NL: cfg.NL}
	bits := dims.PayloadBits(cfg.Scheme.BitsPerSymbol())
	var phases []report.SlotPhase
	for _, st := range Stages {
		rep, ok := r.Stages[st]
		if !ok {
			continue
		}
		var share float64
		if r.TotalCycles > 0 {
			share = float64(rep.Wall) / float64(r.TotalCycles)
		}
		phases = append(phases, report.SlotPhase{
			Name:         string(st),
			PerPass:      rep.Wall,
			Passes:       1,
			Cycles:       rep.Wall,
			Share:        share,
			IPC:          rep.IPC(),
			MACsPerCycle: rep.MACsPerCycle(),
		})
	}
	rec := report.SlotRecord{
		Kind:           "chain",
		Cluster:        cfg.Cluster.Name,
		Cores:          cfg.Cluster.NumCores(),
		UEs:            cfg.NL,
		Scheme:         strings.ToLower(cfg.Scheme.String()),
		Phases:         phases,
		TotalCycles:    r.TotalCycles,
		TimeMs:         r.TimeMs,
		PayloadBits:    bits,
		ThroughputGbps: report.Gbps(bits, r.TotalCycles),
		BER:            r.BER,
		EVMdB:          r.EVMdB,
		SigmaEst:       r.SigmaEst,
	}
	if !cfg.Channel.Legacy() {
		// Channel coordinates: which fading realization this slot saw.
		// Legacy runs omit them, keeping the pre-subsystem wire bytes.
		rec.Channel = string(cfg.Channel.EffectiveProfile())
		rec.DopplerHz = cfg.Channel.DopplerHz
		rec.RicianK = cfg.Channel.RicianK
		rec.ChannelSeed = cfg.Channel.Seed
		rec.ChannelTimeMs = cfg.Channel.TimeMs
	}
	if cfg.Layout.Pipelined() {
		// Layout coordinate: which core partitioning executed the slot.
		// Sequential runs omit it, keeping the pre-layout wire bytes.
		rec.Layout = cfg.Layout.String()
	}
	return rec
}

func (c *ChainConfig) setDefaults() {
	if c.Cluster == nil {
		c.Cluster = arch.MemPool()
	}
	if c.DataAmp == 0 {
		c.DataAmp = 0.25
	}
	if c.PilotAmp == 0 {
		c.PilotAmp = 0.5
	}
	if c.Taps == 0 {
		c.Taps = 4
	}
}

// validate rejects configurations the kernels cannot schedule.
func (c *ChainConfig) validate() error {
	switch {
	case c.NSC < 64 || c.NSC&(c.NSC-1) != 0 || c.NSC&0x55555555 == 0:
		return fmt.Errorf("pusch: NSC %d must be a power of 4 >= 64", c.NSC)
	case c.NR%4 != 0 || c.NR <= 0:
		return fmt.Errorf("pusch: NR %d must be a positive multiple of 4", c.NR)
	case c.NB%4 != 0 || c.NB <= 0 || c.NB > c.NR:
		return fmt.Errorf("pusch: NB %d must be a positive multiple of 4, <= NR", c.NB)
	case c.NL <= 0 || c.NL > 4:
		return fmt.Errorf("pusch: NL %d must be in 1..4", c.NL)
	case c.NSC%c.NL != 0:
		return fmt.Errorf("pusch: NSC %d must be a multiple of NL %d", c.NSC, c.NL)
	case c.NPilot != 2:
		return fmt.Errorf("pusch: NPilot must be 2 (differential noise estimation), got %d", c.NPilot)
	case c.NSymb <= c.NPilot:
		return fmt.Errorf("pusch: NSymb %d must exceed NPilot %d", c.NSymb, c.NPilot)
	case c.Timing != TimingCycleAccurate && c.Timing != TimingAnalytic:
		return fmt.Errorf("pusch: unknown timing mode %q", c.Timing)
	}
	if err := c.Channel.Validate(); err != nil {
		return fmt.Errorf("pusch: %w", err)
	}
	lanes := c.NSC / 16
	if lanes > c.Cluster.NumCores() {
		return fmt.Errorf("pusch: one %d-point FFT needs %d lanes, cluster has %d cores", c.NSC, lanes, c.Cluster.NumCores())
	}
	return c.Layout.validate(c.Cluster, c.NSC)
}

// fftBatchOn chooses how many FFTs share a lane set so all NR
// transforms fit on a partition of the given size.
func (c *ChainConfig) fftBatchOn(cores int) (batch int, err error) {
	lanes := c.NSC / 16
	maxJobs := cores / lanes
	if maxJobs == 0 {
		return 0, fmt.Errorf("pusch: FFT lanes exceed core count")
	}
	batch = (c.NR + maxJobs - 1) / maxJobs
	for c.NR%batch != 0 {
		batch++
	}
	return batch, nil
}

// RunChain executes the full receive chain on a freshly built machine
// and reports link quality plus per-stage timing. It composes the three
// chain stages — SlotTX (transmit side), Pipeline (receive kernels) and
// ScoreSlot (link metrics) — which are also callable individually.
func RunChain(cfg ChainConfig) (*ChainResult, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return RunChainOn(engine.NewMachine(cfg.Cluster), cfg)
}

// RunChainOn executes the full receive chain on a caller-supplied
// machine, which must be fresh or Reset and built for cfg.Cluster (a nil
// cfg.Cluster adopts the machine's own configuration). Sweeps use it to
// reuse one pooled Machine — and its multi-MiB TCDM arena — across many
// scenario runs; a reused machine reproduces a fresh machine's cycle
// counts exactly.
func RunChainOn(m *engine.Machine, cfg ChainConfig) (*ChainResult, error) {
	return runChainOn(m, cfg, nil)
}

// RunChainTraced executes the chain on a freshly built machine with span
// tracing: every chain stage window and every engine phase lands in tr
// as a virtual-time span. Tracing is observation only — the result (and
// its record) is byte-identical to an untraced run.
func RunChainTraced(cfg ChainConfig, tr *obs.Trace) (*ChainResult, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return RunChainTracedOn(engine.NewMachine(cfg.Cluster), cfg, tr)
}

// RunChainTracedOn is RunChainTraced on a caller-supplied (fresh or
// Reset) machine. The run attaches its own engine.Tracer for the
// duration and restores the machine's previous tracer afterwards; a nil
// tr degrades to exactly RunChainOn.
func RunChainTracedOn(m *engine.Machine, cfg ChainConfig, tr *obs.Trace) (*ChainResult, error) {
	return runChainOn(m, cfg, tr)
}

func runChainOn(m *engine.Machine, cfg ChainConfig, tr *obs.Trace) (*ChainResult, error) {
	if cfg.Cluster == nil {
		cfg.Cluster = m.Cfg
	}
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Timing == TimingAnalytic {
		// The engine only ever produces cycle-accurate records; analytic
		// slots are resolved by the calibrated model (internal/timing) in
		// the orchestration layers. Rejecting them here makes an analytic
		// record that secretly ran the engine — or an engine record
		// stamped analytic — impossible by construction.
		return nil, fmt.Errorf("pusch: analytic timing is resolved by the calibrated model (internal/timing), not the engine")
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15))

	if tr != nil {
		// Attach a private engine tracer for the run; the machine pool
		// scrubs tracers on Get, so traced runs own their attachment.
		prev := m.Tracer
		m.Tracer = &engine.Tracer{}
		defer func() { m.Tracer = prev }()
	}
	tx, err := NewSlotTX(&cfg, rng)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		// Host-side work carries no simulated cycles: an instant marker.
		c := m.Cycles()
		tr.Add("host", "slot-tx", c, c)
	}
	pl, err := NewPipeline(m, cfg)
	if err != nil {
		return nil, err
	}
	pl.trace = tr
	for s := 0; s < cfg.NSymb; s++ {
		if err := pl.RunSymbol(s, tx.RxTime[s]); err != nil {
			return nil, err
		}
	}
	if err := pl.Drain(); err != nil {
		return nil, err
	}
	lm, err := ScoreSlot(&cfg, tx, pl.Detected())
	if err != nil {
		return nil, err
	}
	if tr != nil {
		obs.AppendMachineSpans(tr, m.Tracer.Events)
		c := m.Cycles()
		tr.Add("host", "score", c, c)
	}
	return &ChainResult{
		BER:         lm.BER,
		EVMdB:       lm.EVMdB,
		SigmaEst:    pl.Sigma(),
		TotalCycles: pl.Cycles(),
		TimeMs:      float64(pl.Cycles()) / 1e6, // 1 GHz -> 1e6 cycles per ms
		Stages:      pl.Stages(),
	}, nil
}

// RunChainRecord executes the chain on a freshly built machine and
// returns the typed slot record directly. See RunChainRecordOn.
func RunChainRecord(cfg ChainConfig) (report.SlotRecord, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return report.SlotRecord{}, err
	}
	return RunChainRecordOn(engine.NewMachine(cfg.Cluster), cfg)
}

// RunChainRecordOn executes the chain on a caller-supplied (fresh or
// Reset) machine and returns the typed telemetry record instead of the
// raw result: the job-oriented entry point the slot-traffic scheduler
// dispatches, where each admitted job must yield exactly one
// report.SlotRecord.
func RunChainRecordOn(m *engine.Machine, cfg ChainConfig) (report.SlotRecord, error) {
	if cfg.Cluster == nil {
		cfg.Cluster = m.Cfg
	}
	res, err := RunChainOn(m, cfg)
	if err != nil {
		return report.SlotRecord{}, err
	}
	return res.Record(cfg), nil
}

// combinePlan averages the two pilot-symbol channel estimates and
// derives the noise variance from their difference: with a static
// channel, h1 - h2 is pure noise, so sigma^2 = E|h1-h2|^2 / 2. This is
// the NE stage realization for the block-type pilot arrangement.
type combinePlan struct {
	nsc, nb int
	m       *engine.Machine
	h1, h2  *chest.Plan
	hAvg    arch.Addr
	parts   arch.Addr
	sigma   arch.Addr
	cores   []int
	shift   uint
	gain    uint // noise-floor AGC: sigma word holds sigma^2 * 2^gain
}

// newCombinePlan lays the combine job out on an explicit core set.
func newCombinePlan(m *engine.Machine, h1, h2 *chest.Plan, coreSet []int) (*combinePlan, error) {
	if h1.NSC != h2.NSC || h1.NB != h2.NB {
		return nil, fmt.Errorf("pusch: mismatched chest plans")
	}
	c := &combinePlan{nsc: h1.NSC, nb: h1.NB, m: m, h1: h1, h2: h2}
	var err error
	if c.hAvg, err = m.Mem.AllocSeq(c.nsc * c.nb); err != nil {
		return nil, fmt.Errorf("pusch: combine hAvg: %w", err)
	}
	cores := len(coreSet)
	if c.parts, err = m.Mem.AllocSeq(cores); err != nil {
		return nil, fmt.Errorf("pusch: combine partials: %w", err)
	}
	if c.sigma, err = m.Mem.AllocSeq(1); err != nil {
		return nil, fmt.Errorf("pusch: combine sigma: %w", err)
	}
	c.cores = append([]int(nil), coreSet...)
	perLane := (c.nsc + cores - 1) / cores * c.nb
	for 1<<c.shift < perLane {
		c.shift++
	}
	// The squared noise floor of a high-SNR link underflows Q1.15, so
	// the stored word carries sigma^2 * 2^gain; Sigma undoes the gain
	// and downstream regularization tolerates the scale (slight extra
	// shrinkage at very high SNR, invisible at operating points).
	c.gain = 8
	if c.gain > c.shift {
		c.gain = c.shift
	}
	return c, nil
}

// HAddr addresses the averaged channel estimate like chest.Plan.HAddr.
func (c *combinePlan) HAddr(sc, b int) arch.Addr {
	return c.hAvg + arch.Addr(sc*c.nb+b)
}

// SigmaAddr exposes the combined noise-variance word.
func (c *combinePlan) SigmaAddr() arch.Addr { return c.sigma }

// Sigma reads the noise variance as a float, removing the AGC gain.
func (c *combinePlan) Sigma() float64 {
	return fixed.Q15ToFloat(fixed.C15(c.m.Mem.Read(c.sigma)).Re()) / float64(int64(1)<<c.gain)
}

// Job builds the combine job: the per-subcarrier average plus noise
// accumulation, then the lane-0 reduction into the sigma word.
func (c *combinePlan) Job() engine.Job {
	lanes := len(c.cores)
	combineWork := func(p *engine.Proc) {
		per := (c.nsc + lanes - 1) / lanes
		lo := p.Lane * per
		hi := min(lo+per, c.nsc)
		var acc engine.A
		for sc := lo; sc < hi; sc++ {
			for b := 0; b < c.nb; b++ {
				w1 := p.Load(c.h1.HAddr(sc, b))
				w2 := p.Load(c.h2.HAddr(sc, b))
				avg := p.CHalf(p.CAdd(w1, w2))
				p.Store(c.HAddr(sc, b), avg)
				d := p.CSub(w1, w2)
				acc = p.MacAbs2(acc, d)
				p.Tick(1)
			}
			p.Tick(1)
		}
		p.Store(c.parts+arch.Addr(p.Lane), p.Narrow(acc, c.shift-c.gain))
	}
	reduceWork := func(p *engine.Proc) {
		if p.Lane != 0 {
			return
		}
		one := p.Imm(fixed.Pack(fixed.MaxQ15, 0))
		var acc engine.A
		for l := 0; l < lanes; l++ {
			w := p.Load(c.parts + arch.Addr(l))
			acc = p.Mac(acc, w, one)
			p.Tick(1)
		}
		var shift uint
		for 1<<shift < lanes {
			shift++
		}
		// Divide by two: E|h1-h2|^2 = 2 sigma_h^2.
		sigma := p.CHalf(p.Narrow(acc, shift))
		p.Store(c.sigma, sigma)
	}
	return engine.Job{
		Name:  "ne-combine",
		Cores: c.cores,
		Phases: []engine.Phase{
			{Name: "combine", Kernel: "ne/combine", Lines: 8, Work: combineWork},
			{Name: "reduce", Kernel: "ne/reduce", Lines: 4, Work: reduceWork},
		},
	}
}

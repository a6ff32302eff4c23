package sched

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/campaign"
	"repro/internal/channel"
	"repro/internal/pusch"
	"repro/internal/waveform"
)

// CyclesPerMs converts the nominal 1 GHz clock: 1e6 simulated cycles
// per millisecond, the axis every arrival time and rate uses.
const CyclesPerMs = 1e6

// DefaultUEPopulation is the number of distinct mobile-UE fading
// identities the traffic generators cycle through when the base
// configuration carries an active channel spec without a pinned fading
// seed: job i belongs to UE i mod DefaultUEPopulation, so every UE's
// slots share one coherently evolving channel.
const DefaultUEPopulation = 16

// channelSeedSalt decorrelates the UE fading identities from the
// payload-seed stream derived from the same trace seed.
const channelSeedSalt = 0x0ddfadedc0ffee11

// UEPopulation is a block of fleet-wide mobile-UE fading identities a
// trace cycles through. The zero value is the single-cell default:
// DefaultUEPopulation identities starting at UE 0, exactly the
// stamping the generators have always applied. A fleet scales Size to
// cells × DefaultUEPopulation (one shared arrival process over the
// whole deployment), while independent per-cell traces use disjoint
// Offsets so their UE identities — and therefore their fading seeds —
// never collide fleet-wide.
type UEPopulation struct {
	// Size is the number of distinct UE identities in the block
	// (<= 0 means DefaultUEPopulation).
	Size int
	// Offset is the block's first fleet-wide UE index.
	Offset int
}

// normalize pins the zero value to the single-cell default.
func (p UEPopulation) normalize() UEPopulation {
	if p.Size <= 0 {
		p.Size = DefaultUEPopulation
	}
	return p
}

// UE returns the fleet-wide UE index of the i-th job in a trace
// stamped over the block: round-robin inside the block, offset into
// the fleet-wide identity space.
func (p UEPopulation) UE(i int) int {
	p = p.normalize()
	return p.Offset + i%p.Size
}

// FadingSeed derives the fading identity of the i-th job of a trace
// drawn with traceSeed: a pure function of (trace seed, fleet-wide UE
// index), so the same UE keeps one coherently evolving channel no
// matter which cell serves it or how its slots interleave with other
// blocks'.
func (p UEPopulation) FadingSeed(traceSeed uint64, i int) uint64 {
	return campaign.DeriveSeed(traceSeed^channelSeedSalt, p.UE(i))
}

// stampChannel attaches the evolving per-UE link-state coordinates to
// one generated job: with an active channel spec, an unpinned fading
// seed is assigned round-robin over the UE population block (slots i,
// i+P, i+2P... belong to one UE and therefore one fading process), and
// the channel time is the job's arrival instant, so a UE's consecutive
// slots sample its channel at their true temporal spacing. Jobs that
// pin their own fading seed or time (replayed traces, hand-built
// specs) are left untouched, and legacy specs stay legacy — every
// stamped field is a pure function of (trace seed, index, arrival), so
// traces remain byte-identical across measurement worker counts.
func stampChannel(cfg *pusch.ChainConfig, i int, arrival int64, seed uint64, pop UEPopulation) {
	if cfg.Channel.Legacy() {
		return
	}
	if cfg.Channel.Seed == 0 {
		cfg.Channel.Seed = pop.FadingSeed(seed, i)
	}
	if cfg.Channel.TimeMs == 0 {
		cfg.Channel.TimeMs = float64(arrival) / CyclesPerMs
	}
}

// StampMobile applies the generators' mobile-UE link-state stamping to
// an already built trace: job i gets the UE identity i mod
// DefaultUEPopulation and its arrival instant as channel time, exactly
// as if the trace had come out of a generator with the same seed (0 is
// pinned to 1, like the generators). Trace sources that bypass the
// generators — campaign adaptations via FromScenarios — use it to
// serve mobile UEs; jobs with legacy specs or pinned coordinates are
// left untouched.
func StampMobile(jobs []Job, seed uint64) []Job {
	return StampMobileAs(jobs, seed, UEPopulation{})
}

// StampMobileAs is StampMobile over an explicit UE population block:
// the fleet-scale stamping entry point. Traces destined for different
// cells of one deployment pass blocks with disjoint Offsets so no two
// cells' UEs share a fading identity.
func StampMobileAs(jobs []Job, seed uint64, pop UEPopulation) []Job {
	if seed == 0 {
		seed = 1
	}
	for i := range jobs {
		stampChannel(&jobs[i].Chain, i, jobs[i].Arrival, seed, pop)
	}
	return jobs
}

// Mobile converts a chain configuration into its mobile-UE variant:
// fading over the named profile at dopplerHz. It is the puschd
// -channel/-doppler entry point; the returned base makes every
// generator stamp per-UE link state via stampChannel.
func Mobile(base pusch.ChainConfig, profile channel.Profile, dopplerHz, ricianK float64) pusch.ChainConfig {
	base.Channel.Profile = profile
	base.Channel.DopplerHz = dopplerHz
	base.Channel.RicianK = ricianK
	return base
}

// trafficRNG builds the deterministic arrival-process generator for a
// trace seed (0 is pinned to 1 so the zero value still reproduces).
func trafficRNG(seed uint64) (*rand.Rand, uint64) {
	if seed == 0 {
		seed = 1
	}
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)), seed
}

// stampJob finalizes one generated job: per-job payload seed (distinct
// slots carry distinct payload) and an index-stamped name.
func stampJob(prefix string, i int, arrival int64, seed uint64, pop UEPopulation, cfg pusch.ChainConfig) Job {
	if cfg.Seed == 0 {
		cfg.Seed = campaign.DeriveSeed(seed, i)
	}
	stampChannel(&cfg, i, arrival, seed, pop)
	return Job{
		Name:    fmt.Sprintf("%s-%03d", prefix, i),
		Arrival: arrival,
		Chain:   cfg,
	}
}

// PoissonTrace draws n jobs with exponentially distributed inter-arrival
// times at a mean rate of ratePerMs slots per millisecond (the memoryless
// arrivals of a continuously loaded cell). All slots run base; the trace
// is a pure function of (base, n, ratePerMs, seed).
func PoissonTrace(base pusch.ChainConfig, n int, ratePerMs float64, seed uint64) []Job {
	return PoissonTracePop(base, n, ratePerMs, seed, UEPopulation{})
}

// PoissonTracePop is PoissonTrace over an explicit UE population
// block: the fleet-scale arrival process, where the identity space
// grows with the deployment instead of staying pinned to one cell's
// DefaultUEPopulation.
func PoissonTracePop(base pusch.ChainConfig, n int, ratePerMs float64, seed uint64, pop UEPopulation) []Job {
	if n < 0 {
		n = 0
	}
	rng, seed := trafficRNG(seed)
	if ratePerMs <= 0 {
		ratePerMs = 1
	}
	mean := CyclesPerMs / ratePerMs
	jobs := make([]Job, 0, n)
	t := 0.0
	for i := 0; i < n; i++ {
		t += rng.ExpFloat64() * mean
		jobs = append(jobs, stampJob("poisson", i, int64(t), seed, pop, base))
	}
	return jobs
}

// BurstyTrace draws n jobs as an on/off process: bursts of burst slots
// with Poisson inter-arrivals at ratePerMs, separated by exponentially
// distributed silent gaps with mean gapMs milliseconds — the bursty
// uplink of a cell whose users transmit in episodes rather than
// continuously.
func BurstyTrace(base pusch.ChainConfig, n, burst int, ratePerMs, gapMs float64, seed uint64) []Job {
	return BurstyTracePop(base, n, burst, ratePerMs, gapMs, seed, UEPopulation{})
}

// BurstyTracePop is BurstyTrace over an explicit UE population block.
func BurstyTracePop(base pusch.ChainConfig, n, burst int, ratePerMs, gapMs float64, seed uint64, pop UEPopulation) []Job {
	if n < 0 {
		n = 0
	}
	rng, seed := trafficRNG(seed)
	if ratePerMs <= 0 {
		ratePerMs = 1
	}
	if burst < 1 {
		burst = 1
	}
	if gapMs < 0 {
		gapMs = 0
	}
	mean := CyclesPerMs / ratePerMs
	jobs := make([]Job, 0, n)
	t := 0.0
	for i := 0; i < n; i++ {
		if i > 0 && i%burst == 0 {
			t += rng.ExpFloat64() * gapMs * CyclesPerMs
		}
		t += rng.ExpFloat64() * mean
		jobs = append(jobs, stampJob("bursty", i, int64(t), seed, pop, base))
	}
	return jobs
}

// MixEntry is one configuration of a blended traffic mix, drawn with
// probability proportional to Weight.
type MixEntry struct {
	Weight float64
	Name   string
	Chain  pusch.ChainConfig
}

// MixedTrace draws n jobs with Poisson arrivals at ratePerMs, each
// job's configuration sampled from the weighted mix: the multi-use-case
// load of a cell serving different UE blends at once. Each job is named
// after its mix entry. Entries with non-positive weight are never drawn;
// an empty or all-zero mix returns nil.
func MixedTrace(mix []MixEntry, n int, ratePerMs float64, seed uint64) []Job {
	return MixedTracePop(mix, n, ratePerMs, seed, UEPopulation{})
}

// MixedTracePop is MixedTrace over an explicit UE population block.
func MixedTracePop(mix []MixEntry, n int, ratePerMs float64, seed uint64, pop UEPopulation) []Job {
	var total float64
	for _, e := range mix {
		if e.Weight > 0 {
			total += e.Weight
		}
	}
	if total == 0 {
		return nil
	}
	if n < 0 {
		n = 0
	}
	rng, seed := trafficRNG(seed)
	if ratePerMs <= 0 {
		ratePerMs = 1
	}
	mean := CyclesPerMs / ratePerMs
	jobs := make([]Job, 0, n)
	t := 0.0
	for i := 0; i < n; i++ {
		t += rng.ExpFloat64() * mean
		pick := rng.Float64() * total
		var entry MixEntry
		for _, e := range mix {
			if e.Weight <= 0 {
				continue
			}
			entry = e
			if pick < e.Weight {
				break
			}
			pick -= e.Weight
		}
		jobs = append(jobs, stampJob(entry.Name, i, int64(t), seed, pop, entry.Chain))
	}
	return jobs
}

// TableIMix returns the paper's Table I use-case blend scaled to the
// functional chain's dimensions: the 1/2/4-UE operating points that
// Table I prices (here at NSC=256, NR=16, NB=8, the same reduced slot
// the campaign engine sweeps), weighted toward the heavier multi-UE
// allocations the way a loaded cell is. Modulation tracks the UE count
// — single-UE cell-edge QPSK up to 4-UE 64-QAM. A non-nil override
// replaces the default base configuration (its NL and Scheme are still
// set per entry).
func TableIMix(override *pusch.ChainConfig) []MixEntry {
	base := pusch.ChainConfig{
		NSC: 256, NR: 16, NB: 8,
		NSymb: 6, NPilot: 2,
		SNRdB: 20,
	}
	if override != nil {
		base = *override
	}
	entry := func(w float64, name string, nl int, scheme waveform.Scheme) MixEntry {
		cfg := base
		cfg.NL = nl
		cfg.Scheme = scheme
		return MixEntry{Weight: w, Name: name, Chain: cfg}
	}
	return []MixEntry{
		entry(0.2, "1ue-qpsk", 1, waveform.QPSK),
		entry(0.3, "2ue-16qam", 2, waveform.QAM16),
		entry(0.5, "4ue-64qam", 4, waveform.QAM64),
	}
}

package main

import (
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/campaign"
	"repro/internal/channel"
	"repro/internal/fleet"
	"repro/internal/pusch"
	"repro/internal/sched"
	"repro/internal/waveform"
)

// trafficSeed fixes every workload's traffic shape: arrival instants,
// the mix entry each slot draws and the mobile UEs' fading identities.
// The benchmark's -seed draws the payload of every slot (data bits,
// noise and the iid channel draw), so the simulated-cycle metrics are
// exact workload constants while the bytes served change with the seed.
const trafficSeed = 0x5eed

// payloadSalt decorrelates the pinned fast-path coordinates' payload
// seeds from the per-job payload seeds drawn from the same -seed.
const payloadSalt = 0xcafef00dd00d

// cachedCoordsPerEntry is how many pinned payload seeds each mix entry
// contributes to fastpath-replay's recurring cycle-accurate set.
const cachedCoordsPerEntry = 4

// Name prefixes of fastpath-replay jobs; the correctness gate checks
// each record's timing stamp against its job's prefix.
const (
	analyticPrefix = "analytic/"
	cachedPrefix   = "cached/"
)

// workload is one benchmark traffic mix: how its trace is drawn and
// which serving stack and fast paths serve it.
type workload struct {
	name string
	// jobs is the trace length of one measured serve.
	jobs int
	// fleetCells > 0 serves through a fleet.Fleet of that many cells;
	// 0 serves through one sched.Scheduler.
	fleetCells int
	// cacheFile warm-starts the service-time cache from a file built in
	// the untimed preparation step; model loads the calibration.
	cacheFile bool
	model     bool
	trace     func(seed uint64, jobs int) []sched.Job
}

// workloads lists every benchmark workload by name.
var workloads = []workload{
	{name: "cold-mempool-mix", jobs: 120, trace: coldMemPoolMix},
	{name: "cold-terapool-fleet", jobs: 120, fleetCells: 2, trace: coldTeraPoolFleet},
	{name: "fastpath-replay", jobs: 60000, cacheFile: true, model: true, trace: fastpathReplay},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// defaultSlot is puschd's default slot: 256 subcarriers, 16 antennas,
// 8 beams, 6 symbols with 2 pilots, at 20 dB.
func defaultSlot(cluster *arch.Config) pusch.ChainConfig {
	return pusch.ChainConfig{
		Cluster: cluster,
		NSC:     256, NR: 16, NB: 8, NL: 4,
		NSymb: 6, NPilot: 2,
		Scheme: waveform.QPSK,
		SNRdB:  20,
	}
}

// Offered rates in slots per simulated millisecond. The Table I mix
// averages ~25k cycles per slot on MemPool and ~15k on the pipelined
// TeraPool, so these put each server near 0.5 utilization (the fleet's
// within its bursts).
const (
	memPoolRatePerMs  = 20
	teraPoolRatePerMs = 66
)

// The fleet's arrivals come in bursts of fleetBurst slots separated by
// exponential gaps of mean fleetGapMs, so a 120-job trace spans about
// one simulated second: long enough for the UEs' cell gains (periods
// of 0.4 to 1.6 s) to cross and hand UEs over between cells.
const (
	fleetBurst = 12
	fleetGapMs = 100
)

// stampPayload gives job i the payload seed DeriveSeed(seed, i).
func stampPayload(jobs []sched.Job, seed uint64) []sched.Job {
	for i := range jobs {
		jobs[i].Chain.Seed = campaign.DeriveSeed(seed, i)
	}
	return jobs
}

// coldMemPoolMix is puschd -gen mix on MemPool: Poisson arrivals over
// the Table I blend, sequential layout, legacy iid channel.
func coldMemPoolMix(seed uint64, n int) []sched.Job {
	base := defaultSlot(arch.MemPool())
	return stampPayload(sched.MixedTrace(sched.TableIMix(&base), n, memPoolRatePerMs, trafficSeed), seed)
}

// coldTeraPoolFleet is the Table I blend on mobile UEs (TDL-B, 30 Hz
// Doppler) arriving in bursts, for a 2-cell fleet of TeraPool cells on
// the stock pipelined layout. Every job pins its cluster and layout,
// so the fleet's cells serve it exactly as specified.
func coldTeraPoolFleet(seed uint64, n int) []sched.Job {
	tp := arch.TeraPool()
	base := defaultSlot(tp)
	base.Layout = pusch.StockPipelined(tp)
	base = sched.Mobile(base, channel.TDLB, 30, 0)
	jobs := sched.BurstyTracePop(base, n, fleetBurst, teraPoolRatePerMs, fleetGapMs, trafficSeed, fleet.Population(2))
	// Each slot's mix entry, drawn as the fleet's mixed trace draws it.
	mixed := fleet.MixedTrace(2, sched.TableIMix(&base), n, teraPoolRatePerMs, trafficSeed)
	for i := range jobs {
		jobs[i].Name = mixed[i].Name
		jobs[i].Chain.NL, jobs[i].Chain.Scheme = mixed[i].Chain.NL, mixed[i].Chain.Scheme
	}
	return stampPayload(jobs, seed)
}

// fastpathReplay interleaves analytic jobs (even positions) with
// cycle-accurate jobs on a small recurring set of pinned-seed
// coordinates (odd positions) that the prepared cache file holds.
func fastpathReplay(seed uint64, n int) []sched.Job {
	base := defaultSlot(arch.MemPool())
	mix := sched.TableIMix(&base)
	jobs := stampPayload(sched.MixedTrace(mix, n, memPoolRatePerMs, trafficSeed), seed)
	coords := cachedCoords(seed)
	for i := range jobs {
		j := &jobs[i]
		if i%2 == 0 {
			j.Name = fmt.Sprintf("%s%s-%06d", analyticPrefix, j.Name, i)
			j.Chain.Timing = pusch.TimingAnalytic
			continue
		}
		c := coords[(i/2)%len(coords)]
		j.Name = fmt.Sprintf("%s%s-%06d", cachedPrefix, c.Name, i)
		j.Chain = c.Chain
	}
	return jobs
}

// cachedCoords is fastpath-replay's recurring cycle-accurate set:
// every Table I entry at cachedCoordsPerEntry pinned payload seeds.
// The arrivals are spaced wider than any slot's service time, so the
// preparation step serves every coordinate and drops none.
func cachedCoords(seed uint64) []sched.Job {
	base := defaultSlot(arch.MemPool())
	var out []sched.Job
	for _, e := range sched.TableIMix(&base) {
		for k := 0; k < cachedCoordsPerEntry; k++ {
			cfg := e.Chain
			cfg.Seed = campaign.DeriveSeed(seed^payloadSalt, len(out))
			out = append(out, sched.Job{Name: e.Name, Arrival: int64(len(out)) * 100_000, Chain: cfg})
		}
	}
	return out
}

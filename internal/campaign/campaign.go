// Package campaign turns the one-shot experiment runners of
// internal/pusch into a scenario-sweep engine: a Scenario names one
// configuration variant (an end-to-end chain run or a Fig. 9c use-case
// budget), generators build whole families of them (SNR sweeps behind
// BER/EVM-versus-SNR curves, modulation-scheme x UE grids, the
// cluster-size scaling of Fig. 9a-b, Cholesky schedule sweeps of the
// Fig. 9c green/red comparison), and a Runner fans the scenarios out
// across host goroutines — one engine.Machines pool shard per worker —
// with deterministic per-scenario seeds, so campaign results are
// byte-identical across runs and worker counts.
//
// Campaigns treat scenarios as independent. To serve them as dependent
// traffic through a queue instead (arrivals, waits, drops), adapt them
// with sched.FromScenarios.
package campaign

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/pusch"
	"repro/internal/report"
	"repro/internal/timecache"
	"repro/internal/timing"
)

// Scenario is one named point of a campaign: exactly one of Chain or
// UseCase must be set. Generators produce scenarios in deterministic
// order; hand-built ones compose with them freely.
type Scenario struct {
	Name string
	// Chain runs the functional end-to-end receive chain and scores
	// BER/EVM.
	Chain *pusch.ChainConfig
	// UseCase runs the Fig. 9c slot-budget experiment.
	UseCase *pusch.UseCaseConfig
}

// Result is one scenario's outcome, shaped for one-JSON-line-per-scenario
// emission: identifying parameters first, then link quality (chain runs
// only), cycle counts and per-stage cycle shares. Failed scenarios carry
// Error and zero metrics instead of aborting the campaign.
type Result struct {
	Scenario string  `json:"scenario"`
	Kind     string  `json:"kind"` // "chain" or "usecase"
	Cluster  string  `json:"cluster"`
	Cores    int     `json:"cores"`
	Scheme   string  `json:"scheme,omitempty"`
	SNRdB    float64 `json:"snr_db"`
	UEs      int     `json:"ues"`
	Seed     uint64  `json:"seed,omitempty"`
	// Channel coordinates of chain scenarios run over an active fading
	// spec; omitted for legacy (iid, static) configurations, keeping the
	// pre-subsystem wire bytes.
	Channel   string  `json:"channel,omitempty"`
	DopplerHz float64 `json:"doppler_hz,omitempty"`
	// Layout is the chain's stage-to-partition mapping coordinate
	// ("pipe/f64/b32/d64" splits); omitted for sequential runs, keeping
	// the pre-layout wire bytes.
	Layout string `json:"layout,omitempty"`
	// Timing is "analytic" when the cycle figures are predictions of
	// the calibrated cycle model (internal/timing) rather than engine
	// measurements; omitted for cycle-accurate runs, keeping the
	// pre-analytic wire bytes. Analytic results carry timing only —
	// BER, EVM and sigma stay zero, since no payload was processed.
	Timing string `json:"timing,omitempty"`

	BER      float64 `json:"ber"`
	EVMdB    float64 `json:"evm_db"`
	SigmaEst float64 `json:"sigma_est"`

	TotalCycles int64   `json:"cycles"`
	TimeMs      float64 `json:"time_ms"`
	// PayloadBits and ThroughputGbps are the slot-throughput metrics of
	// the typed telemetry record: the information payload one slot
	// carries and the Gb/s it sustains at the nominal 1 GHz clock.
	PayloadBits    int64   `json:"payload_bits,omitempty"`
	ThroughputGbps float64 `json:"throughput_gbps,omitempty"`
	// StageShares maps each stage to its fraction of the run's cycles:
	// the five chain stages for chain runs, the fft/mmm/chol kernel
	// split for use-case runs.
	StageShares map[string]float64 `json:"stage_shares,omitempty"`

	Error string `json:"error,omitempty"`
}

// validate checks the one-variant invariant.
func (s *Scenario) validate() error {
	switch {
	case s.Chain == nil && s.UseCase == nil:
		return fmt.Errorf("campaign: scenario %q has no configuration", s.Name)
	case s.Chain != nil && s.UseCase != nil:
		return fmt.Errorf("campaign: scenario %q is both chain and use case", s.Name)
	}
	return nil
}

// run executes one scenario on machines drawn from pool, with seed as
// the fallback when a chain scenario does not pin its own. A non-nil
// cache memoizes chain service times by scenario coordinate; a
// non-nil model resolves analytic-timing chain scenarios without
// touching the pool at all. A non-nil tr collects the scenario's
// virtual-time spans when the engine actually runs (cache hits,
// analytic slots and use cases leave it empty).
func (s *Scenario) run(pool *engine.Machines, seed uint64, cache *timecache.Cache, model *timing.Model, tr *obs.Trace) Result {
	res := Result{Scenario: s.Name}
	if err := s.validate(); err != nil {
		res.Error = err.Error()
		return res
	}
	if s.Chain != nil {
		return s.runChain(pool, seed, cache, model, tr)
	}
	return s.runUseCase(pool)
}

func (s *Scenario) runChain(pool *engine.Machines, seed uint64, cache *timecache.Cache, model *timing.Model, tr *obs.Trace) Result {
	cfg := *s.Chain
	if cfg.Cluster == nil {
		cfg.Cluster = arch.MemPool()
	}
	if cfg.Seed == 0 {
		cfg.Seed = seed
	}
	res := Result{
		Scenario: s.Name,
		Kind:     "chain",
		SNRdB:    cfg.SNRdB,
		Scheme:   cfg.Scheme.String(),
		UEs:      cfg.NL,
		Seed:     cfg.Seed,
	}
	if !cfg.Channel.Legacy() {
		res.Channel = string(cfg.Channel.EffectiveProfile())
		res.DopplerHz = cfg.Channel.DopplerHz
	}
	if cfg.Layout.Pipelined() {
		res.Layout = cfg.Layout.String()
	}
	// Validate before pool.Get: NewMachine panics on broken cluster
	// configs, and a bad scenario must surface as Result.Error, not
	// abort the campaign.
	if err := cfg.Cluster.Validate(); err != nil {
		res.Error = err.Error()
		return res
	}
	res.Cluster = cfg.Cluster.Name
	res.Cores = cfg.Cluster.NumCores()
	rec, err := Resolve(pool, cfg, cache, model, measureChain(tr))
	if err != nil {
		res.Error = err.Error()
		return res
	}
	fillFromRecord(&res, rec)
	return res
}

// fillFromRecord copies a memoized chain record's campaign-visible
// outcome into res. The record's Share fields were computed with the
// exact expression the cold path uses (stage wall over total cycles,
// in float64), so a cache hit reproduces the cold Result byte for
// byte when marshaled.
func fillFromRecord(res *Result, rec report.SlotRecord) {
	res.Timing = rec.Timing
	res.BER = rec.BER
	res.EVMdB = rec.EVMdB
	res.SigmaEst = rec.SigmaEst
	res.TotalCycles = rec.TotalCycles
	res.TimeMs = rec.TimeMs
	res.PayloadBits = rec.PayloadBits
	res.ThroughputGbps = rec.ThroughputGbps
	if rec.TotalCycles > 0 {
		res.StageShares = make(map[string]float64, len(rec.Phases))
		for _, ph := range rec.Phases {
			res.StageShares[ph.Name] = ph.Share
		}
	}
}

func (s *Scenario) runUseCase(pool *engine.Machines) Result {
	cfg := *s.UseCase
	if cfg.Cluster == nil {
		cfg.Cluster = pusch.DefaultUseCase().Cluster
	}
	res := Result{
		Scenario: s.Name,
		Kind:     "usecase",
		UEs:      cfg.NL,
	}
	// As in runChain: surface a broken cluster config as a per-scenario
	// error instead of letting pool.Get panic the campaign.
	if err := cfg.Cluster.Validate(); err != nil {
		res.Error = err.Error()
		return res
	}
	res.Cluster = cfg.Cluster.Name
	res.Cores = cfg.Cluster.NumCores()
	ur, err := pusch.RunUseCaseOn(pool, cfg)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	res.TotalCycles = ur.TotalCycles
	res.TimeMs = ur.TimeMs
	res.StageShares = ur.Shares()
	rec := ur.Record(cfg)
	res.PayloadBits = rec.PayloadBits
	res.ThroughputGbps = rec.ThroughputGbps
	return res
}

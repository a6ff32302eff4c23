package campaign

import (
	"errors"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/pusch"
	"repro/internal/report"
	"repro/internal/timecache"
	"repro/internal/timing"
)

// MeasureFunc measures one fully stamped slot configuration on a
// machine from the pool. The production implementation runs the real
// chain; tests substitute synthetic service times.
type MeasureFunc func(pool *engine.Machines, cfg pusch.ChainConfig) (report.SlotRecord, error)

// errNoModel fails analytic jobs and scenarios resolved without a
// calibration model.
var errNoModel = errors.New("analytic timing requested but no calibration model is loaded")

// Resolve measures one fully stamped slot configuration through the
// fast paths, in precedence order: the calibrated analytic model (for
// configurations whose Timing asks for it), the service-time cache,
// then the engine via measure (nil means the production chain). It is
// the single resolution path of the campaign Runner, the scheduler and
// the fleet, so every serving stack composes identically with the
// cache and the analytic mode.
//
// Analytic configurations resolve against the model before — and
// entirely instead of — the cache and the machine pool; their stamped
// records can never enter the cache (CacheKey refuses them, and
// timecache.Add refuses stamped records). A cache-key derivation error
// (invalid config, non-canonical layout) bypasses the cache entirely:
// invalid configs still surface as errors from the measurement itself,
// and unkeyable-but-valid ones are simply measured every time.
func Resolve(pool *engine.Machines, cfg pusch.ChainConfig, cache *timecache.Cache, model *timing.Model, measure MeasureFunc) (report.SlotRecord, error) {
	if cfg.Timing == pusch.TimingAnalytic {
		if model == nil {
			return report.SlotRecord{}, errNoModel
		}
		return model.Predict(cfg)
	}
	key := ""
	if cache != nil {
		if k, err := cfg.CacheKey(); err == nil {
			key = k
			if rec, ok := cache.Lookup(key); ok {
				return rec, nil
			}
		}
	}
	if measure == nil {
		measure = measureChain(nil)
	}
	rec, err := measure(pool, cfg)
	if key != "" && err == nil {
		cache.Add(key, rec)
	}
	return rec, err
}

// measureChain is the production measurement: one chain run on a
// machine recycled through pool, its virtual-time spans collected in tr
// when tr is non-nil.
func measureChain(tr *obs.Trace) MeasureFunc {
	return func(pool *engine.Machines, cfg pusch.ChainConfig) (report.SlotRecord, error) {
		if cfg.Cluster == nil {
			cfg.Cluster = arch.MemPool()
		}
		// Validate before pool.Get: NewMachine panics on broken cluster
		// configs, and a bad job must surface as an error, not abort the
		// run.
		if err := cfg.Cluster.Validate(); err != nil {
			return report.SlotRecord{}, err
		}
		m := pool.Get(cfg.Cluster)
		cr, err := pusch.RunChainTracedOn(m, cfg, tr)
		pool.Put(m)
		if err != nil {
			return report.SlotRecord{}, err
		}
		return cr.Record(cfg), nil
	}
}

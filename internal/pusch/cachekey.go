package pusch

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"

	"repro/internal/arch"
	"repro/internal/report"
)

// CacheKeySchema versions the coordinate-key layout of CacheKey. It is
// the first token of every key, so a persisted service-time cache
// written under an older derivation can never serve an entry to a
// newer one: a stale key simply misses and the slot is re-simulated —
// wrong timing is impossible by construction. Bump it whenever the key
// stops capturing a coordinate that affects timing or payload, or a
// coordinate's recorded figures change.
const CacheKeySchema = "tc2"

// CacheKey returns the full scenario coordinate of one chain run: the
// deterministic identity under which the service-time cache
// (internal/timecache) memoizes the run's SlotRecord. Because the
// simulator is bit-reproducible, the record is a pure function of this
// coordinate, so a cache hit is exact — byte-identical to re-running
// the chain.
//
// The key builds on report.SlotRecord.Key (kind, cluster, UEs, scheme,
// channel profile + fading seed + channel time, layout) and extends it
// with every remaining ChainConfig coordinate the record key cannot
// see: the air-interface dimensions, SNR, amplitudes, tap count,
// payload seed, interpolation flag, the Doppler/Rician/delay-spread
// channel parameters, and a fingerprint of the full cluster geometry
// (so custom scaled clusters sharing a stock name never collide).
//
// Configurations without a replayable coordinate — invalid ones, or
// hand-built non-canonical layouts — return an error; callers bypass
// the cache for them and measure directly.
func (c ChainConfig) CacheKey() (string, error) {
	if c.Cluster == nil {
		// Same fallback every measurement path applies (sched.measureChain,
		// campaign.runChain), so keyed and measured configurations agree.
		c.Cluster = arch.MemPool()
	}
	c.setDefaults()
	if err := c.validate(); err != nil {
		return "", err
	}
	if c.Timing == TimingAnalytic {
		// Analytic records are model predictions, not measurements; giving
		// them no coordinate keeps them out of the service-time cache by
		// construction (timecache additionally rejects stamped records).
		return "", fmt.Errorf("pusch: cache key: analytic-timing slots are never cached")
	}
	layout := ""
	if c.Layout.Pipelined() {
		w, err := c.Layout.Wire()
		if err != nil {
			return "", fmt.Errorf("pusch: cache key: %w", err)
		}
		layout = w
	}
	skel := report.SlotRecord{
		Kind:    "chain",
		Cluster: c.Cluster.Name,
		Cores:   c.Cluster.NumCores(),
		UEs:     c.NL,
		Scheme:  strings.ToLower(c.Scheme.String()),
		Layout:  layout,
	}
	ch := c.Channel
	ch.SetDefaults()
	if !c.Channel.Legacy() {
		skel.Channel = string(ch.Profile)
		skel.ChannelSeed = ch.Seed
		skel.ChannelTimeMs = ch.TimeMs
	}
	b := make([]byte, 0, 192)
	b = append(b, CacheKeySchema...)
	b = append(b, '|')
	b = skel.AppendKey(b)
	num := func(label string, v int) { b = strconv.AppendInt(append(b, label...), int64(v), 10) }
	flt := func(label string, v float64) { b = strconv.AppendFloat(append(b, label...), v, 'g', -1, 64) }
	num("|nsc", c.NSC)
	num("/nr", c.NR)
	num("/nb", c.NB)
	num("/sy", c.NSymb)
	num("/pi", c.NPilot)
	flt("|snr", c.SNRdB)
	flt("|amp", c.DataAmp)
	flt(":", c.PilotAmp)
	num("|taps", c.Taps)
	b = strconv.AppendUint(append(b, "|seed"...), c.Seed, 16)
	if c.InterpolateChannel {
		b = append(b, "|interp"...)
	}
	if !c.Channel.Legacy() {
		// Doppler, Rician K and delay spread shape the fading realization
		// beyond what the record key carries.
		flt("|fd", ch.DopplerHz)
		flt("/k", ch.RicianK)
		flt("/ds", ch.DelaySpreadNs)
	}
	b = append(b, "|arch"...)
	b = append(b, ArchFingerprint(c.Cluster)...)
	return string(b), nil
}

// ArchFingerprint hashes the complete cluster description — geometry,
// latencies, wake costs, I$ and FU parameters — so two clusters that
// time differently can never share cache entries, whatever their names
// say. The analytic timing calibration (internal/timing) keys its
// per-cluster coefficients by the same fingerprint, so a calibration
// fitted on one geometry can never be evaluated on another.
func ArchFingerprint(cfg *arch.Config) string {
	if fp, ok := archFingerprints.Load(*cfg); ok {
		return fp.(string)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", *cfg)
	fp := strconv.FormatUint(h.Sum64(), 16)
	archFingerprints.Store(*cfg, fp)
	return fp
}

// archFingerprints memoizes ArchFingerprint by configuration value.
// arch.Config is comparable, so an entry can only ever be read back for
// a field-for-field equal geometry — a mutated copy is a different key,
// never a stale hit — and the map holds one entry per distinct geometry
// a process has seen.
var archFingerprints sync.Map // arch.Config -> string

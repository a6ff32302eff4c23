package report

import (
	"strconv"
	"strings"
)

// SlotPhase is one stage's (or kernel's) contribution to a slot-level
// record: a measured pass scaled by its per-slot repetition count for
// use-case budgets, or the aggregate stage window for chain runs.
type SlotPhase struct {
	Name string `json:"name"`
	// PerPass is the wall-cycle cost of one measured pass; Passes is how
	// many times the slot repeats it. Chain stages report the aggregate
	// directly (Passes = 1).
	PerPass      int64   `json:"per_pass"`
	Passes       int     `json:"passes"`
	Cycles       int64   `json:"cycles"`
	Share        float64 `json:"share"`
	IPC          float64 `json:"ipc,omitempty"`
	MACsPerCycle float64 `json:"macs_per_cycle,omitempty"`
}

// SlotRecord is the structured result of one slot-level experiment: the
// Fig. 9c use-case budget or a functional chain run, with the
// slot-throughput metric of the SDR follow-up papers (payload bits over
// slot cycles at 1 GHz).
type SlotRecord struct {
	// Kind is "usecase" or "chain".
	Kind    string `json:"kind"`
	Cluster string `json:"cluster"`
	Cores   int    `json:"cores"`
	UEs     int    `json:"ues"`
	// Scheme is the modulation carrying the payload ("qpsk", "16qam",
	// "64qam"). Use-case records state the scheme assumed for the
	// throughput figure.
	Scheme string `json:"scheme,omitempty"`
	// CholPerRound is the use-case Cholesky schedule (0 for chain runs).
	CholPerRound int `json:"chol_per_round,omitempty"`

	Phases []SlotPhase `json:"phases"`

	TotalCycles int64   `json:"cycles"`
	TimeMs      float64 `json:"time_ms"`

	// PayloadBits is the information payload one slot carries at these
	// dimensions; ThroughputGbps is PayloadBits over the slot time at the
	// nominal 1 GHz clock.
	PayloadBits    int64   `json:"payload_bits"`
	ThroughputGbps float64 `json:"throughput_gbps"`

	// SerialCycles/Speedup are only set when the experiment also measured
	// the single-core baseline.
	SerialCycles int64   `json:"serial_cycles,omitempty"`
	Speedup      float64 `json:"speedup,omitempty"`

	// Link quality, chain runs only. SigmaEst is the chain's estimated
	// noise variance, recorded so a slot's full campaign-visible outcome
	// can be reconstructed from the record alone (the service-time cache
	// relies on this: a cached record must reproduce a cold run's result
	// byte for byte).
	BER      float64 `json:"ber,omitempty"`
	EVMdB    float64 `json:"evm_db,omitempty"`
	SigmaEst float64 `json:"sigma_est,omitempty"`

	// Channel coordinates: the fading realization a chain slot was run
	// over. Channel is the profile name ("iid", "tdl-a", ...); DopplerHz
	// the maximum Doppler shift; RicianK the linear K-factor of the
	// strongest tap; ChannelSeed the UE fading identity and ChannelTimeMs
	// the slot's position on that UE's channel time axis (two records
	// sharing a ChannelSeed saw one coherently evolving channel). All
	// omitted for legacy (iid, static) runs, whose wire bytes predate the
	// channel subsystem.
	Channel       string  `json:"channel,omitempty"`
	DopplerHz     float64 `json:"doppler_hz,omitempty"`
	RicianK       float64 `json:"rician_k,omitempty"`
	ChannelSeed   uint64  `json:"channel_seed,omitempty"`
	ChannelTimeMs float64 `json:"channel_time_ms,omitempty"`

	// Layout coordinate: how the chain's stages were mapped onto core
	// partitions ("pipe/f64/b32/d64" style splits for spatially
	// pipelined runs). Omitted for the sequential layout, whose wire
	// bytes predate the layout subsystem.
	Layout string `json:"layout,omitempty"`

	// Timing marks how the record's cycle counts were produced:
	// "analytic" for predictions of the calibrated closed-form cycle
	// model (internal/timing), omitted for cycle-accurate engine runs,
	// whose wire bytes predate the analytic mode. Stamped records are
	// model output, not measurements: the service-time cache refuses
	// them and baseline diffs distinguish them by Key.
	Timing string `json:"timing,omitempty"`
}

// Key returns the stable identity used to match slot records across
// runs: kind, cluster (name and core count), UE count, Cholesky
// schedule, scheme, channel coordinates (profile plus, when stamped,
// the UE fading seed and channel time, so two slots of one link-curve
// or mobile trace never collide) and layout. Documents holding slot
// variants this composite cannot distinguish (e.g. an SNR sweep at
// fixed dimensions) are flagged by Diff as duplicates rather than
// silently collapsed. The service-time cache builds its coordinate key
// on top of this composite (pusch.ChainConfig.CacheKey).
func (r *SlotRecord) Key() string { return string(r.AppendKey(nil)) }

// AppendKey appends Key's bytes to dst and returns the extended slice,
// so key builders layered on it (pusch.ChainConfig.CacheKey) compose
// the coordinate in one buffer.
func (r *SlotRecord) AppendKey(dst []byte) []byte {
	dst = append(dst, r.Kind...)
	dst = append(dst, '/')
	dst = append(dst, strings.ToLower(r.Cluster)...)
	dst = append(dst, '/')
	dst = strconv.AppendInt(dst, int64(r.Cores), 10)
	dst = append(dst, "c/"...)
	dst = strconv.AppendInt(dst, int64(r.UEs), 10)
	dst = append(dst, "ue/chol"...)
	dst = strconv.AppendInt(dst, int64(r.CholPerRound), 10)
	if r.Scheme != "" {
		dst = append(append(dst, '/'), r.Scheme...)
	}
	if r.Channel != "" {
		dst = append(append(dst, '/'), r.Channel...)
		if r.ChannelSeed != 0 {
			dst = strconv.AppendUint(append(dst, "/cs"...), r.ChannelSeed, 16)
		}
		if r.ChannelTimeMs != 0 {
			dst = strconv.AppendFloat(append(dst, "/t"...), r.ChannelTimeMs, 'g', -1, 64)
		}
	}
	if r.Layout != "" {
		dst = append(append(dst, '/'), r.Layout...)
	}
	if r.Timing != "" {
		// An analytic prediction and a cycle-accurate measurement of the
		// same slot are different records; they must never collide in a
		// baseline diff.
		dst = append(append(dst, '/'), r.Timing...)
	}
	return dst
}

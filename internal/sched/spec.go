package sched

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/arch"
	"repro/internal/channel"
	"repro/internal/engine"
	"repro/internal/pusch"
	"repro/internal/waveform"
)

// Spec is the wire form of one slot job: one JSON object per line on a
// job stream. Zero-valued fields inherit from the server's default
// chain configuration, so a minimal stream only states arrival times:
//
//	{"arrival_cycle": 0}
//	{"arrival_cycle": 140000, "scheme": "64qam", "ues": 4}
//	{"name": "edge", "arrival_cycle": 300000, "snr_db": 8, "seed": 7}
type Spec struct {
	Name    string `json:"name,omitempty"`
	Arrival int64  `json:"arrival_cycle"`
	Cluster string `json:"cluster,omitempty"` // "mempool" or "terapool"
	NSC     int    `json:"nsc,omitempty"`
	NR      int    `json:"nr,omitempty"`
	NB      int    `json:"nb,omitempty"`
	UEs     int    `json:"ues,omitempty"`
	NSymb   int    `json:"nsymb,omitempty"`
	Scheme  string `json:"scheme,omitempty"` // "qpsk", "16qam", "64qam"
	// SNRdB is a pointer because 0 dB is a legitimate operating point:
	// absent means "inherit the server default", present-and-zero means
	// 0 dB. JobSpec always writes it, so saved traces replay faithfully.
	SNRdB *float64 `json:"snr_db,omitempty"`
	Seed  uint64   `json:"seed,omitempty"`

	// Channel coordinates (internal/channel): the fading profile, the
	// Doppler and Rician parameters, the UE fading identity and the
	// slot's position on that UE's channel time axis. Zero values
	// inherit the server default; generated mobile traces stamp all of
	// them, so a saved trace replays the exact same fading realizations.
	Channel       string  `json:"channel,omitempty"`
	DopplerHz     float64 `json:"doppler_hz,omitempty"`
	RicianK       float64 `json:"rician_k,omitempty"`
	ChannelSeed   uint64  `json:"channel_seed,omitempty"`
	ChannelTimeMs float64 `json:"channel_time_ms,omitempty"`

	// Layout is the chain's stage-to-partition mapping ("sequential",
	// "pipe" for the job cluster's stock pipelined split, or an explicit
	// "pipe/f<F>/b<B>/d<D>"). Empty inherits the server default.
	Layout string `json:"layout,omitempty"`

	// Timing selects the job's timing path: "analytic" for the
	// calibrated cycle model, "cycle-accurate" to pin the engine even
	// under an analytic server default. Empty inherits the server
	// default.
	Timing string `json:"timing,omitempty"`
}

// ParseScheme maps the wire names to waveform schemes.
func ParseScheme(name string) (waveform.Scheme, error) {
	switch strings.ToLower(name) {
	case "qpsk":
		return waveform.QPSK, nil
	case "16qam", "qam16":
		return waveform.QAM16, nil
	case "64qam", "qam64":
		return waveform.QAM64, nil
	default:
		return 0, fmt.Errorf("sched: unknown scheme %q (want qpsk, 16qam or 64qam)", name)
	}
}

// ParseChannelProfile maps the wire names to fading profiles ("" is
// the iid profile).
func ParseChannelProfile(name string) (channel.Profile, error) {
	return channel.ParseProfile(name)
}

// ParseCluster maps the wire names to cluster configurations.
func ParseCluster(name string) (*arch.Config, error) {
	switch strings.ToLower(name) {
	case "mempool":
		return arch.MemPool(), nil
	case "terapool":
		return arch.TeraPool(), nil
	default:
		return nil, fmt.Errorf("sched: unknown cluster %q (want mempool or terapool)", name)
	}
}

// Job materializes the spec over the server's defaults.
func (sp Spec) Job(defaults pusch.ChainConfig) (Job, error) {
	return sp.job(defaults, ParseCluster)
}

// job is Job with the cluster-name resolver supplied, so ReadJobs can
// hand every job of one stream the same configuration per stock name.
func (sp Spec) job(defaults pusch.ChainConfig, parseCluster func(string) (*arch.Config, error)) (Job, error) {
	cfg := defaults
	if sp.Cluster != "" {
		cl, err := parseCluster(sp.Cluster)
		if err != nil {
			return Job{}, err
		}
		cfg.Cluster = cl
	}
	if sp.NSC != 0 {
		cfg.NSC = sp.NSC
	}
	if sp.NR != 0 {
		cfg.NR = sp.NR
	}
	if sp.NB != 0 {
		cfg.NB = sp.NB
	}
	if sp.UEs != 0 {
		cfg.NL = sp.UEs
	}
	if sp.NSymb != 0 {
		cfg.NSymb = sp.NSymb
	}
	if sp.Scheme != "" {
		sc, err := ParseScheme(sp.Scheme)
		if err != nil {
			return Job{}, err
		}
		cfg.Scheme = sc
	}
	if sp.SNRdB != nil {
		cfg.SNRdB = *sp.SNRdB
	}
	if sp.Seed != 0 {
		cfg.Seed = sp.Seed
	}
	if sp.Channel != "" {
		p, err := channel.ParseProfile(sp.Channel)
		if err != nil {
			return Job{}, err
		}
		cfg.Channel.Profile = p
	}
	if sp.DopplerHz != 0 {
		cfg.Channel.DopplerHz = sp.DopplerHz
	}
	if sp.RicianK != 0 {
		cfg.Channel.RicianK = sp.RicianK
	}
	if sp.ChannelSeed != 0 {
		cfg.Channel.Seed = sp.ChannelSeed
	}
	if sp.ChannelTimeMs != 0 {
		cfg.Channel.TimeMs = sp.ChannelTimeMs
	}
	if sp.Timing != "" {
		tm, err := pusch.ParseTimingMode(sp.Timing)
		if err != nil {
			return Job{}, err
		}
		cfg.Timing = tm
	}
	if sp.Layout != "" {
		// Resolve "pipe" against the job's effective cluster (the
		// scheduler's own fallback for a nil cluster is MemPool).
		cl := cfg.Cluster
		if cl == nil {
			cl = arch.MemPool()
		}
		lay, err := pusch.ParseLayout(sp.Layout, cl)
		if err != nil {
			return Job{}, err
		}
		cfg.Layout = lay
	} else if sp.Cluster != "" {
		// The inherited default layout was resolved against the server's
		// default cluster; a spec that swaps the cluster without pinning a
		// layout refits it to its own (e.g. a TeraPool default served on
		// MemPool).
		cfg.Layout = cfg.Layout.ForCluster(cfg.Cluster)
	}
	return Job{Name: sp.Name, Arrival: sp.Arrival, Chain: cfg}, nil
}

// specCluster returns the wire name of a job's cluster: empty for nil
// (inherit the server default) and the stock names for value-equal
// stock configurations. Custom geometries have no wire form — emitting
// their name would either fail ParseCluster on replay or, worse,
// silently replay on different geometry — so they are an error.
func specCluster(cfg *arch.Config) (string, error) {
	switch {
	case cfg == nil:
		return "", nil
	case *cfg == *arch.MemPool():
		return "mempool", nil
	case *cfg == *arch.TeraPool():
		return "terapool", nil
	}
	return "", fmt.Errorf("sched: cluster %q is not a stock configuration; job streams can only carry mempool or terapool", cfg.Name)
}

// JobSpec is the inverse of Spec.Job: the wire form of a materialized
// job, for serializing generated traces so they can be replayed. Jobs
// on non-stock cluster geometries cannot be represented (see
// specCluster) and return an error.
func JobSpec(j Job) (Spec, error) {
	cluster, err := specCluster(j.Chain.Cluster)
	if err != nil {
		return Spec{}, err
	}
	snr := j.Chain.SNRdB
	sp := Spec{
		Name:    j.Name,
		Arrival: j.Arrival,
		Cluster: cluster,
		NSC:     j.Chain.NSC,
		NR:      j.Chain.NR,
		NB:      j.Chain.NB,
		UEs:     j.Chain.NL,
		NSymb:   j.Chain.NSymb,
		Scheme:  strings.ToLower(j.Chain.Scheme.String()),
		SNRdB:   &snr,
		Seed:    j.Chain.Seed,
	}
	if ch := j.Chain.Channel; !ch.Legacy() {
		sp.Channel = string(ch.EffectiveProfile())
		sp.DopplerHz = ch.DopplerHz
		sp.RicianK = ch.RicianK
		sp.ChannelSeed = ch.Seed
		sp.ChannelTimeMs = ch.TimeMs
	}
	if j.Chain.Layout.Pipelined() {
		sp.Layout = j.Chain.Layout.String()
	}
	if j.Chain.Timing != pusch.TimingCycleAccurate {
		sp.Timing = string(j.Chain.Timing)
	}
	return sp, nil
}

// parseWindow is how many job lines ReadJobs scans before decoding
// them as one batch: enough to amortize the fan-out, few enough that a
// window's raw bytes stay around a megabyte.
const parseWindow = 4096

// ReadJobs parses a JSONL job stream, one Spec per line, zero fields
// inheriting from defaults. Blank lines and lines starting with '#' are
// skipped, so traces can carry comments.
//
// Lines are scanned into windows of parseWindow, each window is decoded
// across GOMAXPROCS goroutines, and its jobs are appended in line
// order, so the result never depends on the host. A malformed stream
// fails with the error of its lowest-numbered bad line, exactly as a
// line-by-line parse would. A stream shorter than one window is decoded
// on the calling goroutine.
//
// Jobs naming the same stock cluster share one read-only configuration,
// as jobs inheriting the defaults' cluster already share that one.
func ReadJobs(r io.Reader, defaults pusch.ChainConfig) ([]Job, error) {
	stock := map[string]*arch.Config{"mempool": arch.MemPool(), "terapool": arch.TeraPool()}
	parseCluster := func(name string) (*arch.Config, error) {
		if cl, ok := stock[strings.ToLower(name)]; ok {
			return cl, nil
		}
		return ParseCluster(name)
	}
	var jobs []Job
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var (
		raw   []byte // the window's lines, back to back
		ends  []int  // end offset of each line in raw
		nums  []int  // stream line number of each line
		line  int
		first = true
	)
	for more := true; more; first = false {
		raw, ends, nums = raw[:0], ends[:0], nums[:0]
		for len(ends) < parseWindow {
			if more = sc.Scan(); !more {
				break
			}
			line++
			text := bytes.TrimSpace(sc.Bytes())
			if len(text) == 0 || text[0] == '#' {
				continue
			}
			raw = append(raw, text...)
			ends = append(ends, len(raw))
			nums = append(nums, line)
		}
		workers := 0 // GOMAXPROCS
		if first && !more {
			workers = 1
		}
		base := len(jobs)
		jobs = slices.Grow(jobs, len(ends))[:base+len(ends)]
		errs := make([]error, len(ends))
		engine.ForEach(len(ends), workers, func(_, i int) {
			lo := 0
			if i > 0 {
				lo = ends[i-1]
			}
			var sp Spec
			if err := json.Unmarshal(raw[lo:ends[i]], &sp); err != nil {
				errs[i] = err
				return
			}
			jobs[base+i], errs[i] = sp.job(defaults, parseCluster)
		})
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("sched: job stream line %d: %w", nums[i], err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sched: job stream: %w", err)
	}
	return jobs, nil
}

// WriteSpecs serializes jobs as a JSONL trace, one Spec per line — the
// replayable form of a generated trace. It fails on jobs the wire
// format cannot represent faithfully (non-stock cluster geometries).
func WriteSpecs(w io.Writer, jobs []Job) error {
	enc := json.NewEncoder(w)
	for i, j := range jobs {
		sp, err := JobSpec(j)
		if err != nil {
			return fmt.Errorf("job %d (%s): %w", i, j.Name, err)
		}
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	return nil
}

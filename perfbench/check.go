package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/pusch"
	"repro/internal/report"
	"repro/internal/sched"
)

// Link-quality sanity limits for cycle-accurate records. A broken
// detector reads BER ~0.5 and an EVM near 0 dB; the worst Table I entry
// (4 UEs, 64-QAM at 20 dB) reads BER ~0.12 and EVM ~-12 dB.
const (
	maxBER   = 0.25
	maxEVMdB = -6.0
)

// maxListed caps the violation messages kept in a result; every
// violation is still counted.
const maxListed = 8

// checkResult is the correctness verdict on one output stream plus the
// simulated-time metrics read from it.
type checkResult struct {
	Served     int      `json:"served"`
	Dropped    int      `json:"dropped"`
	Failed     int      `json:"failed"`
	Violations int      `json:"violations"`
	Messages   []string `json:"messages,omitempty"`
	Digest     string   `json:"digest"`

	SimLatencyP50 int64   `json:"sim_latency_p50_cycles"`
	SimLatencyP90 int64   `json:"sim_latency_p90_cycles"`
	SimServedGbps float64 `json:"sim_served_gbps"`
}

func (c *checkResult) violate(format string, args ...any) {
	c.Violations++
	if len(c.Messages) < maxListed {
		c.Messages = append(c.Messages, fmt.Sprintf(format, args...))
	}
}

// checkStream reads a served JSONL stream and checks it against the
// trace: every record is possible (finish >= start >= arrival, waits
// and latencies consistent), cycle-accurate records carry sane link
// metrics, outcomes conserve jobs (per cell and fleet-wide), and on
// fastpath-replay every analytic job is stamped analytic and no
// lookup missed the cache. host is the serve's returned host stats.
func checkStream(path string, w workload, jobs []sched.Job, host *report.HostStats) (checkResult, error) {
	var c checkResult
	f, err := os.Open(path)
	if err != nil {
		return c, err
	}
	defer f.Close()
	h := sha256.New()
	sc := bufio.NewScanner(io.TeeReader(f, h))
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)

	var lats []int64
	servedPerCell := map[int]int{}
	var summaries []report.ServiceSummary
	var fleetSum *report.FleetSummary
	lastJob := -1
	for sc.Scan() {
		raw := sc.Bytes()
		var kind struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(raw, &kind); err != nil {
			return c, fmt.Errorf("output line: %w", err)
		}
		switch kind.Kind {
		case "chain":
			var r report.JobRecord
			if err := json.Unmarshal(raw, &r); err != nil {
				return c, fmt.Errorf("job record: %w", err)
			}
			if r.Job <= lastJob || r.Job >= len(jobs) {
				c.violate("job %d out of order or range", r.Job)
			}
			lastJob = r.Job
			checkRecord(&c, w, &r)
			lats = append(lats, r.LatencyCycles)
			servedPerCell[r.Cell]++
		case "summary", "cell-summary":
			var s report.ServiceSummary
			if err := json.Unmarshal(raw, &s); err != nil {
				return c, fmt.Errorf("summary: %w", err)
			}
			summaries = append(summaries, s)
		case "fleet-summary":
			fleetSum = new(report.FleetSummary)
			if err := json.Unmarshal(raw, fleetSum); err != nil {
				return c, fmt.Errorf("fleet summary: %w", err)
			}
		default:
			c.violate("unknown line kind %q", kind.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return c, fmt.Errorf("reading output: %w", err)
	}
	c.Digest = hex.EncodeToString(h.Sum(nil))

	// Totals: the fleet summary when there is one, else the only summary.
	var tot report.ServiceSummary
	switch {
	case w.fleetCells > 1:
		if fleetSum == nil || len(summaries) != w.fleetCells {
			c.violate("fleet stream has %d cell summaries and fleet summary %v", len(summaries), fleetSum != nil)
			return c, nil
		}
		var sum report.ServiceSummary
		for i, s := range summaries {
			sum.Jobs += s.Jobs
			sum.Served += s.Served
			sum.Dropped += s.Dropped
			sum.Failed += s.Failed
			if servedPerCell[i] != s.Served {
				c.violate("cell %d: %d records, summary says %d served", i, servedPerCell[i], s.Served)
			}
		}
		tot = report.ServiceSummary{
			Jobs: fleetSum.Jobs, Served: fleetSum.Served, Dropped: fleetSum.Dropped, Failed: fleetSum.Failed,
			LatencyP50Cycles: fleetSum.LatencyP50Cycles, ServedGbps: fleetSum.ServedGbps,
		}
		if sum.Jobs != tot.Jobs || sum.Served != tot.Served || sum.Dropped != tot.Dropped || sum.Failed != tot.Failed {
			c.violate("per-cell sums %d/%d/%d/%d differ from fleet totals %d/%d/%d/%d",
				sum.Jobs, sum.Served, sum.Dropped, sum.Failed, tot.Jobs, tot.Served, tot.Dropped, tot.Failed)
		}
	default:
		if len(summaries) != 1 || fleetSum != nil {
			c.violate("stream has %d summaries, want 1", len(summaries))
			return c, nil
		}
		tot = summaries[0]
	}
	c.Served, c.Dropped, c.Failed = tot.Served, tot.Dropped, tot.Failed
	if tot.Served+tot.Dropped+tot.Failed != tot.Jobs || tot.Jobs != len(jobs) {
		c.violate("served %d + dropped %d + failed %d != jobs %d (trace has %d)",
			tot.Served, tot.Dropped, tot.Failed, tot.Jobs, len(jobs))
	}
	if len(lats) != tot.Served {
		c.violate("%d job records for %d served", len(lats), tot.Served)
	}
	if len(lats) == 0 {
		c.violate("nothing served")
		return c, nil
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	c.SimLatencyP50 = obs.PercentileInt64(lats, 50)
	c.SimLatencyP90 = obs.PercentileInt64(lats, 90)
	c.SimServedGbps = tot.ServedGbps
	if c.SimLatencyP50 != tot.LatencyP50Cycles {
		c.violate("latency p50 %d from records, %d in summary", c.SimLatencyP50, tot.LatencyP50Cycles)
	}

	if w.cacheFile {
		if host == nil || host.CacheMisses != 0 {
			c.violate("cache misses on a replay of cached coordinates: %+v", host)
		}
	}
	return c, nil
}

// checkRecord checks one served job record.
func checkRecord(c *checkResult, w workload, r *report.JobRecord) {
	if !(r.FinishCycle >= r.StartCycle && r.StartCycle >= r.ArrivalCycle) {
		c.violate("job %d: arrival %d, start %d, finish %d", r.Job, r.ArrivalCycle, r.StartCycle, r.FinishCycle)
	}
	if r.WaitCycles != r.StartCycle-r.ArrivalCycle || r.LatencyCycles != r.FinishCycle-r.ArrivalCycle {
		c.violate("job %d: wait %d / latency %d inconsistent with its cycles", r.Job, r.WaitCycles, r.LatencyCycles)
	}
	if r.TotalCycles <= 0 || r.FinishCycle-r.StartCycle != r.TotalCycles {
		c.violate("job %d: service %d cycles over [%d, %d]", r.Job, r.TotalCycles, r.StartCycle, r.FinishCycle)
	}
	analytic := r.Timing == string(pusch.TimingAnalytic)
	if w.cacheFile {
		wantAnalytic := strings.HasPrefix(r.Name, analyticPrefix)
		if analytic != wantAnalytic {
			c.violate("job %d (%s): timing stamp %q", r.Job, r.Name, r.Timing)
		}
	} else if analytic {
		c.violate("job %d: analytic record on a cycle-accurate workload", r.Job)
	}
	if analytic {
		return
	}
	if math.IsNaN(r.BER) || r.BER < 0 || r.BER > maxBER {
		c.violate("job %d (%s): BER %g", r.Job, r.Name, r.BER)
	}
	if math.IsNaN(r.EVMdB) || r.EVMdB > maxEVMdB {
		c.violate("job %d (%s): EVM %g dB", r.Job, r.Name, r.EVMdB)
	}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

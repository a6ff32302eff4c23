package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/pusch"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/timecache"
	"repro/internal/timing"
)

// Files of one run directory.
const (
	metaFile  = "meta.json"
	traceFile = "trace.jsonl"
	cacheFile = "cache.jsonl"
	outFile   = "out.jsonl"
	// referenceFile is an untraced serve's output, kept for traced
	// serves to compare against.
	referenceFile = "reference.jsonl"
	spansFile     = "spans.jsonl"
)

// meta names the workload a run directory was prepared for.
type meta struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Jobs     int    `json:"jobs"`
}

// prepare writes a run directory: the workload's trace as JSONL specs
// and, for workloads that warm-start the cache, the cache file, built
// by serving every recurring coordinate once on the engine. None of it
// is timed.
func prepare(dir string, w workload, seed uint64, jobs int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := sched.WriteSpecs(&buf, w.trace(seed, jobs)); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, traceFile), buf.Bytes(), 0o644); err != nil {
		return err
	}
	if w.cacheFile {
		cache := timecache.New(0)
		s := &sched.Scheduler{Cfg: sched.Config{Cache: cache}}
		coords := cachedCoords(seed)
		results, _ := s.Serve(coords)
		for _, r := range results {
			if r.Outcome != sched.Served {
				return fmt.Errorf("preparing cache: %s: %s %s", r.Name, r.Outcome, r.Error)
			}
		}
		if n := cache.Len(); n != len(coords) {
			return fmt.Errorf("preparing cache: %d entries for %d coordinates", n, len(coords))
		}
		if err := cache.SaveFile(filepath.Join(dir, cacheFile)); err != nil {
			return fmt.Errorf("saving cache: %w", err)
		}
	}
	m, err := json.Marshal(meta{Workload: w.name, Seed: seed, Jobs: jobs})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, metaFile), m, 0o644)
}

// readMeta loads a prepared run directory's workload.
func readMeta(dir string) (meta, workload, error) {
	var m meta
	raw, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		return m, workload{}, err
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return m, workload{}, fmt.Errorf("%s: %w", metaFile, err)
	}
	w, err := lookupWorkload(m.Workload)
	return m, w, err
}

// served is everything one serve needs once set up.
type served struct {
	jobs  []sched.Job
	cache *timecache.Cache
	model *timing.Model
}

// setup is the work before the first job resolves: reading and parsing
// the spec stream, then loading the calibration and the cache file
// where the workload uses them, with a span around each layer call when
// l is not nil. The parse defaults are puschd's: its default slot, on
// MemPool unless the workload serves a fleet, whose cells supply the
// cluster.
func setup(dir string, w workload, l *spanLog, parent int64) (served, error) {
	var s served
	sp := l.begin("sched.parse", parent, -1)
	raw, err := os.ReadFile(filepath.Join(dir, traceFile))
	if err != nil {
		return s, err
	}
	defaults := defaultSlot(arch.MemPool())
	if w.fleetCells > 0 {
		defaults.Cluster = nil
	}
	s.jobs, err = sched.ReadJobs(bytes.NewReader(raw), defaults)
	l.end(sp)
	if err != nil {
		return s, err
	}
	if w.model {
		sp = l.begin("timing.load", parent, -1)
		s.model, err = timing.Load(timing.DefaultPath)
		l.end(sp)
		if err != nil {
			return s, fmt.Errorf("loading calibration: %w", err)
		}
	}
	s.cache = timecache.New(0)
	if w.cacheFile {
		sp = l.begin("timecache.load", parent, -1)
		_, _, err = s.cache.LoadFile(filepath.Join(dir, cacheFile))
		l.end(sp)
		if err != nil {
			return s, fmt.Errorf("loading cache: %w", err)
		}
	}
	return s, nil
}

// fleetCells is the cold-terapool-fleet deployment: identical TeraPool
// cells on the stock pipelined layout.
func fleetCells(n int) []fleet.Cell {
	tp := arch.TeraPool()
	return fleet.Homogeneous(n, fleet.Cell{Cluster: tp, Layout: pusch.StockPipelined(tp)})
}

// newFleet and newScheduler build the serving stacks the way puschd
// does for the workload's flags.
func newFleet(cells, workers int, s served) *fleet.Fleet {
	return &fleet.Fleet{Cfg: fleet.Config{
		Cells:   fleetCells(cells),
		Policy:  fleet.SINRAware,
		Workers: workers,
		Cache:   s.cache,
		Model:   s.model,
	}}
}

func newScheduler(workers int, s served) *sched.Scheduler {
	return &sched.Scheduler{Cfg: sched.Config{
		Workers: workers,
		Cache:   s.cache,
		Model:   s.model,
	}}
}

// repResult is one measured serve, printed as a JSON line for run.py.
type repResult struct {
	Workload    string  `json:"workload"`
	Jobs        int     `json:"jobs"`
	SetupS      float64 `json:"setup_s"`
	WallS       float64 `json:"wall_s"`
	SlotsPerS   float64 `json:"slots_per_s"`
	PeakRSSMB   float64 `json:"peak_rss_mb"`
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	PoolGets    int64   `json:"pool_gets"`
	PoolBuilds  int64   `json:"pool_builds"`
	PoolReuses  int64   `json:"pool_reuses"`
	checkResult
}

// A serve repeats its set-up, after the stream is checked and the peak
// RSS read, until it has spent setupRepeatS seconds on set-ups (at most
// maxSetups of them), and reports their median. A lone sub-millisecond
// set-up in a fresh process is too noisy to compare across runs.
const (
	setupRepeatS = 0.2
	maxSetups    = 1000
)

// serveOnce is one measured run: set up, then serve the trace through
// the workload's stack into the output file with tracing off, then
// check the stream and time further set-ups. The wall time runs from
// reading the spec bytes to the end of the JSONL stream, so it includes
// the first set-up.
func serveOnce(dir string, workers int) (repResult, error) {
	m, w, err := readMeta(dir)
	if err != nil {
		return repResult{}, err
	}
	t0 := time.Now()
	s, err := setup(dir, w, nil, 0)
	if err != nil {
		return repResult{}, err
	}
	setupS := time.Since(t0).Seconds()

	out, err := os.Create(filepath.Join(dir, outFile))
	if err != nil {
		return repResult{}, err
	}
	defer out.Close()
	bw := bufio.NewWriterSize(out, 1<<16)
	var host *report.HostStats
	var pool engine.PoolStats
	if w.fleetCells > 0 {
		sum, err := newFleet(w.fleetCells, workers, s).WriteJSONL(bw, s.jobs)
		if err != nil {
			return repResult{}, err
		}
		host, pool = sum.Host, poolOf(sum.Pool)
	} else {
		sum, err := newScheduler(workers, s).WriteJSONL(bw, s.jobs)
		if err != nil {
			return repResult{}, err
		}
		host, pool = sum.Host, poolOf(sum.Pool)
	}
	if err := bw.Flush(); err != nil {
		return repResult{}, err
	}
	wallS := time.Since(t0).Seconds()
	if err := out.Close(); err != nil {
		return repResult{}, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return repResult{}, err
	}

	chk, err := checkStream(filepath.Join(dir, outFile), w, s.jobs, host)
	if err != nil {
		return repResult{}, err
	}
	if len(s.jobs) != m.Jobs {
		chk.violate("parsed %d jobs, prepared %d", len(s.jobs), m.Jobs)
	}
	setups := []float64{setupS}
	for spent := setupS; spent < setupRepeatS && len(setups) < maxSetups; {
		t := time.Now()
		if _, err := setup(dir, w, nil, 0); err != nil {
			return repResult{}, err
		}
		d := time.Since(t).Seconds()
		setups = append(setups, d)
		spent += d
	}
	return repResult{
		Workload:    w.name,
		Jobs:        len(s.jobs),
		SetupS:      median(setups),
		WallS:       wallS,
		SlotsPerS:   float64(len(s.jobs)) / wallS,
		PeakRSSMB:   rss,
		CacheHits:   host.CacheHits,
		CacheMisses: host.CacheMisses,
		PoolGets:    pool.Gets,
		PoolBuilds:  pool.Builds,
		PoolReuses:  pool.Reuses,
		checkResult: chk,
	}, nil
}

func median(v []float64) float64 {
	sort.Float64s(v)
	if n := len(v); n%2 == 0 {
		return (v[n/2-1] + v[n/2]) / 2
	}
	return v[len(v)/2]
}

// poolOf copies the summary's pool occupancy (nil when absent).
func poolOf(p *engine.PoolStats) engine.PoolStats {
	if p == nil {
		return engine.PoolStats{}
	}
	return *p
}

package bench

import (
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/report"
)

// Experiment is one named, runnable measurement: a kernel configuration
// bound to a cluster. The registry gives cmd/kernelbench, cmd/benchgate
// and the golden determinism test one shared definition of "the
// experiment set", so the CI gate, the committed baselines and the
// printed figures can never disagree about what was measured.
type Experiment struct {
	// ID matches the telemetry record's Key (cluster/kernel/label).
	ID     string
	Kernel string
	// Quick marks the configurations cheap enough for the CI perf gate
	// and the committed baselines (a few seconds of host time in total).
	Quick bool
	Run   func() (*Result, error)
}

// expID builds the registry ID the produced record will carry as Key.
func expID(cfg *arch.Config, kernel, label string) string {
	return fmt.Sprintf("%s/%s/%s", strings.ToLower(cfg.Name), kernel, label)
}

// PaperExperiments returns the full Fig. 8 / Fig. 9 experiment set for
// one cluster: three FFT, three MMM and three Cholesky configurations.
// The first configuration of each kernel is the quick-gate member.
func PaperExperiments(cfg *arch.Config) []Experiment {
	var out []Experiment
	for i, fc := range PaperFFTConfigs(cfg) {
		out = append(out, Experiment{
			ID:     expID(cfg, "fft", fc.Label),
			Kernel: "fft",
			Quick:  i == 0,
			Run:    func() (*Result, error) { return RunFFT(cfg, fc) },
		})
	}
	for i, mc := range PaperMMMConfigs() {
		out = append(out, Experiment{
			ID:     expID(cfg, "mmm", mc.Label),
			Kernel: "mmm",
			Quick:  i == 0,
			Run:    func() (*Result, error) { return RunMMM(cfg, mc) },
		})
	}
	for i, cc := range PaperCholConfigs(cfg) {
		out = append(out, Experiment{
			ID:     expID(cfg, "chol", cc.Label),
			Kernel: "chol",
			Quick:  i == 0,
			Run:    func() (*Result, error) { return RunChol(cfg, cc) },
		})
	}
	return out
}

// ScalingExperiments returns the cluster-scaling curve: the all-cores
// 256-point FFT workload on MemPool tile geometry at 1/2/4 groups
// (64..256 cores) and TeraPool geometry at 2/4/8 groups (256..1024
// cores), the speedup-versus-cores points the TeraPool follow-up papers
// plot. Every point is cheap enough for the quick gate.
func ScalingExperiments() []Experiment {
	type point struct {
		proto  *arch.Config
		groups int
	}
	points := []point{
		{arch.MemPool(), 1}, {arch.MemPool(), 2}, {arch.MemPool(), 4},
		{arch.TeraPool(), 2}, {arch.TeraPool(), 4}, {arch.TeraPool(), 8},
	}
	var out []Experiment
	for _, p := range points {
		cl := *p.proto
		cl.Groups = p.groups
		cl.Name = fmt.Sprintf("%s-g%d", p.proto.Name, p.groups)
		cfg := &cl
		fc := FFTConfig{
			Label: "scaling 256-pt FFTs",
			N:     256,
			Count: cfg.NumCores() / 16,
			Batch: 1,
		}
		out = append(out, Experiment{
			ID:     expID(cfg, "fft", fc.Label),
			Kernel: "fft",
			Quick:  true,
			Run:    func() (*Result, error) { return RunFFT(cfg, fc) },
		})
	}
	return out
}

// ParseClusters resolves a cluster selection: "mempool", "terapool" or
// "both" (MemPool first).
func ParseClusters(name string) ([]*arch.Config, error) {
	switch name {
	case "mempool":
		return []*arch.Config{arch.MemPool()}, nil
	case "terapool":
		return []*arch.Config{arch.TeraPool()}, nil
	case "both":
		return []*arch.Config{arch.MemPool(), arch.TeraPool()}, nil
	}
	return nil, fmt.Errorf("bench: unknown cluster %q (want mempool, terapool or both)", name)
}

// Experiments assembles the selected experiment set. cluster selects
// the clusters as ParseClusters does; kernel selects "fft", "mmm",
// "chol", "scaling" or "all" (scaling points ignore the cluster filter:
// the curve spans both geometries). quickOnly keeps only the quick-gate
// subset.
func Experiments(cluster, kernel string, quickOnly bool) ([]Experiment, error) {
	clusters, err := ParseClusters(cluster)
	if err != nil {
		return nil, err
	}
	wantKernel := func(k string) bool { return kernel == "all" || kernel == k }
	var out []Experiment
	switch kernel {
	case "fft", "mmm", "chol", "scaling", "all":
	default:
		return nil, fmt.Errorf("bench: unknown kernel %q (want fft, mmm, chol, scaling or all)", kernel)
	}
	for _, cfg := range clusters {
		for _, e := range PaperExperiments(cfg) {
			if wantKernel(e.Kernel) {
				out = append(out, e)
			}
		}
	}
	if wantKernel("scaling") {
		out = append(out, ScalingExperiments()...)
	}
	if quickOnly {
		var quick []Experiment
		for _, e := range out {
			if e.Quick {
				quick = append(quick, e)
			}
		}
		out = quick
	}
	return out, nil
}

// QuickExperiments returns the CI perf-gate subset: the first FFT, MMM
// and Cholesky configuration on both MemPool and TeraPool, plus the full
// scaling curve. This is the set the committed baselines
// (testdata/baseline_kernels.json) are regenerated from.
func QuickExperiments() []Experiment {
	exps, err := Experiments("both", "all", true)
	if err != nil {
		panic(err) // static arguments: cannot fail
	}
	return exps
}

// RunExperiments executes the set in order and returns one telemetry
// record per successful experiment plus one error per failed one; it
// never stops early, so a single broken configuration cannot hide the
// rest of the evaluation.
func RunExperiments(exps []Experiment) ([]report.KernelRecord, []error) {
	var records []report.KernelRecord
	var errs []error
	for _, e := range exps {
		r, err := e.Run()
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", e.ID, err))
			continue
		}
		records = append(records, r.Record())
	}
	return records, errs
}

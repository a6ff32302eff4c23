// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs one full experiment per iteration and
// attaches the paper's metrics (IPC, speedup, utilization, MACs/cycle)
// as custom benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation in one run. The per-figure mapping is
// the experiment registry in internal/bench (bench.PaperExperiments);
// the committed kernel baselines (testdata/baseline_kernels.json) and
// BENCH_*.json documents hold the measured numbers.
package repro

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/bench"
	"repro/internal/campaign"
	ipusch "repro/internal/pusch"
	"repro/internal/waveform"
)

// reportKernel attaches the Fig. 8 / Fig. 9 metrics to a benchmark.
func reportKernel(b *testing.B, r *bench.Result) {
	b.Helper()
	b.ReportMetric(r.Parallel.IPC(), "IPC")
	b.ReportMetric(r.Speedup(), "speedup")
	b.ReportMetric(r.Utilization(), "util")
	b.ReportMetric(r.Parallel.MACsPerCycle(), "MACs/cycle")
	b.ReportMetric(float64(r.Parallel.Wall), "cycles")
}

func benchFFT(b *testing.B, cfg *arch.Config, idx int) {
	fc := bench.PaperFFTConfigs(cfg)[idx]
	var last *bench.Result
	for i := 0; i < b.N; i++ {
		r, err := bench.RunFFT(cfg, fc)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	reportKernel(b, last)
}

// Table/figure E3 + E6/E7: Fig. 8a and the FFT rows of Fig. 9.
func BenchmarkFig8a_FFT256_MemPool(b *testing.B)      { benchFFT(b, arch.MemPool(), 0) }
func BenchmarkFig8a_FFT4096_MemPool(b *testing.B)     { benchFFT(b, arch.MemPool(), 1) }
func BenchmarkFig8a_FFT4096x16_MemPool(b *testing.B)  { benchFFT(b, arch.MemPool(), 2) }
func BenchmarkFig8a_FFT256_TeraPool(b *testing.B)     { benchFFT(b, arch.TeraPool(), 0) }
func BenchmarkFig8a_FFT4096_TeraPool(b *testing.B)    { benchFFT(b, arch.TeraPool(), 1) }
func BenchmarkFig8a_FFT4096x16_TeraPool(b *testing.B) { benchFFT(b, arch.TeraPool(), 2) }

func benchMMM(b *testing.B, cfg *arch.Config, idx int) {
	mc := bench.PaperMMMConfigs()[idx]
	var last *bench.Result
	for i := 0; i < b.N; i++ {
		r, err := bench.RunMMM(cfg, mc)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	reportKernel(b, last)
}

// E4 + E6/E7: Fig. 8b and the MMM rows of Fig. 9.
func BenchmarkFig8b_MMM128_MemPool(b *testing.B)      { benchMMM(b, arch.MemPool(), 0) }
func BenchmarkFig8b_MMM256_MemPool(b *testing.B)      { benchMMM(b, arch.MemPool(), 1) }
func BenchmarkFig8b_MMM4096x64_MemPool(b *testing.B)  { benchMMM(b, arch.MemPool(), 2) }
func BenchmarkFig8b_MMM128_TeraPool(b *testing.B)     { benchMMM(b, arch.TeraPool(), 0) }
func BenchmarkFig8b_MMM256_TeraPool(b *testing.B)     { benchMMM(b, arch.TeraPool(), 1) }
func BenchmarkFig8b_MMM4096x64_TeraPool(b *testing.B) { benchMMM(b, arch.TeraPool(), 2) }

func benchChol(b *testing.B, cfg *arch.Config, idx int) {
	cc := bench.PaperCholConfigs(cfg)[idx]
	var last *bench.Result
	for i := 0; i < b.N; i++ {
		r, err := bench.RunChol(cfg, cc)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	reportKernel(b, last)
}

// E5 + E6/E7: Fig. 8c and the Cholesky rows of Fig. 9.
func BenchmarkFig8c_Chol4x4x4_MemPool(b *testing.B)   { benchChol(b, arch.MemPool(), 0) }
func BenchmarkFig8c_Chol4x4x16_MemPool(b *testing.B)  { benchChol(b, arch.MemPool(), 1) }
func BenchmarkFig8c_Chol32_MemPool(b *testing.B)      { benchChol(b, arch.MemPool(), 2) }
func BenchmarkFig8c_Chol4x4x4_TeraPool(b *testing.B)  { benchChol(b, arch.TeraPool(), 0) }
func BenchmarkFig8c_Chol4x4x16_TeraPool(b *testing.B) { benchChol(b, arch.TeraPool(), 1) }
func BenchmarkFig8c_Chol32_TeraPool(b *testing.B)     { benchChol(b, arch.TeraPool(), 2) }

// E1/E2: Table I and Fig. 3 are analytic; the benchmark guards against
// regressions in the complexity model's cost.
func BenchmarkTableI_Complexity(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		for _, nl := range []int{1, 2, 4, 8, 16, 32} {
			total += ipusch.UseCaseDims(nl).TotalMACs()
		}
	}
	b.ReportMetric(total/float64(b.N), "MACs-sum")
}

// E8: Fig. 9c use case on TeraPool (red schedule: 16 decompositions per
// barrier). One iteration simulates the full per-slot kernel passes.
func BenchmarkFig9c_UseCase_TeraPool(b *testing.B) {
	var last *bench.UseCaseResult
	for i := 0; i < b.N; i++ {
		cfg := bench.DefaultUseCase()
		res, err := bench.RunUseCase(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.TotalCycles), "slot-cycles")
	b.ReportMetric(last.TimeMs, "slot-ms")
	b.ReportMetric(last.Shares()["fft"]*100, "fft-share-%")
	b.ReportMetric(last.Shares()["mmm"]*100, "mmm-share-%")
	b.ReportMetric(last.Shares()["chol"]*100, "chol-share-%")
}

// E8 (green schedule): 4 decompositions per barrier, every data symbol.
func BenchmarkFig9c_UseCaseGreen_TeraPool(b *testing.B) {
	var last *bench.UseCaseResult
	for i := 0; i < b.N; i++ {
		cfg := bench.DefaultUseCase()
		cfg.CholPerRound = 4
		res, err := bench.RunUseCase(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.TotalCycles), "slot-cycles")
	b.ReportMetric(last.TimeMs, "slot-ms")
}

// E10: the MMM window-shape ablation (Section V-B register budget):
// MACs/cycle for the 4x4, 4x2 and 2x2 output blocks.
func BenchmarkAblation_MMMWindow4x4(b *testing.B) { benchWindow(b, 0) }

// BenchmarkAblation_MMMWindow4x2 measures the 4x2 block.
func BenchmarkAblation_MMMWindow4x2(b *testing.B) { benchWindow(b, 1) }

// BenchmarkAblation_MMMWindow2x2 measures the 2x2 block.
func BenchmarkAblation_MMMWindow2x2(b *testing.B) { benchWindow(b, 2) }

func benchWindow(b *testing.B, idx int) {
	b.Helper()
	var last *bench.Result
	for i := 0; i < b.N; i++ {
		r, err := bench.RunMMMWindow(arch.MemPool(), bench.PaperMMMConfigs()[0], idx, true)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	reportKernel(b, last)
}

// BenchmarkCampaignSweep measures host-side campaign throughput: one
// iteration runs an 8-point SNR sweep of the reduced functional slot
// through the parallel Runner, so machine pooling (Machine.Reset instead
// of per-scenario reallocation) and worker fan-out both land in the
// bench trajectory as scenarios/sec.
func BenchmarkCampaignSweep(b *testing.B) {
	base := ipusch.ChainConfig{
		Cluster: arch.MemPool(),
		NSC:     256, NR: 16, NB: 8, NL: 4,
		NSymb: 4, NPilot: 2,
		Scheme: waveform.QPSK,
	}
	scenarios := campaign.SNRSweep(base, 8, 22, 2)
	if len(scenarios) != 8 {
		b.Fatalf("sweep has %d points, want 8", len(scenarios))
	}
	// A fixed worker count below the scenario count keeps the metric
	// stable across machines and guarantees each worker runs several
	// scenarios, exercising the Machine.Reset reuse path.
	runner := &campaign.Runner{Workers: 2}
	var results []campaign.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results = runner.Run(scenarios)
	}
	b.StopTimer()
	for _, res := range results {
		if res.Error != "" {
			b.Fatalf("%s: %s", res.Scenario, res.Error)
		}
	}
	secPerOp := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(float64(len(scenarios))/secPerOp, "scenarios/sec")
	b.ReportMetric(float64(results[0].TotalCycles), "cycles")
}

// Functional end-to-end slot: the chain at reduced scale with BER/EVM.
func BenchmarkChain_FunctionalSlot(b *testing.B) {
	var last *ipusch.ChainResult
	for i := 0; i < b.N; i++ {
		res, err := ipusch.RunChain(ipusch.ChainConfig{
			NSC: 256, NR: 16, NB: 8, NL: 4,
			NSymb: 4, NPilot: 2,
			Scheme: waveform.QPSK,
			SNRdB:  26,
			Seed:   uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.BER, "BER")
	b.ReportMetric(last.EVMdB, "EVM-dB")
	b.ReportMetric(float64(last.TotalCycles), "cycles")
}

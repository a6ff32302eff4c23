// Command kernelbench regenerates the kernel-level evaluation of the
// paper: Fig. 8 (IPC and stall breakdowns for FFT, MMM and Cholesky on
// MemPool and TeraPool), Fig. 9a-b (speedups and cycle counts against a
// serial single-core baseline), the cluster-scaling curve, and the
// design ablations of Section V (-ablate: MMM window shapes, FFT data
// layout, software-pipelined Cholesky pairs).
//
// Results are typed telemetry records (internal/report); -json emits
// them as a deterministic benchmark document that cmd/benchgate diffs
// against the committed baselines.
//
// Usage:
//
//	kernelbench [-cluster mempool|terapool|both] [-kernel fft|mmm|chol|scaling|all]
//	            [-quick] [-json] [-o file] [-headline]
//	            [-ablate none|window|layout|cholpipe]
//	kernelbench -update-baseline [-baseline testdata/baseline_kernels.json]
//
// kernelbench exits non-zero when any experiment fails; the remaining
// experiments still run and report.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand/v2"
	"os"

	"repro/internal/arch"
	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/fixed"
	"repro/internal/kernels/chol"
	"repro/internal/kernels/fft"
	"repro/internal/kernels/mmm"
	"repro/internal/phy"
	"repro/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("kernelbench: ")
	clusterFlag := flag.String("cluster", "both", "mempool, terapool or both")
	kernelFlag := flag.String("kernel", "all", "fft, mmm, chol, scaling or all")
	quick := flag.Bool("quick", false, "run only the quick CI-gate subset")
	jsonOut := flag.Bool("json", false, "emit the benchmark document as JSON instead of tables")
	outPath := flag.String("o", "", "write the JSON document to this file instead of stdout (implies -json)")
	updateBaseline := flag.Bool("update-baseline", false,
		"run the quick gate subset and rewrite the committed baseline document")
	baselinePath := flag.String("baseline", "testdata/baseline_kernels.json",
		"baseline document path used by -update-baseline")
	ablateFlag := flag.String("ablate", "none", "none, window (MMM block shapes), layout (FFT folding) or cholpipe (software-pipelined Cholesky pairs)")
	headline := flag.Bool("headline", false, "print only the headline speedup/utilization summary")
	flag.Parse()

	if *ablateFlag != "none" {
		// Ablations run on the first selected cluster (MemPool when the
		// flag is "both"), as before the registry refactor.
		var cfg *arch.Config
		switch *clusterFlag {
		case "mempool", "both":
			cfg = arch.MemPool()
		case "terapool":
			cfg = arch.TeraPool()
		default:
			log.Fatalf("unknown cluster %q (want mempool, terapool or both)", *clusterFlag)
		}
		switch *ablateFlag {
		case "window":
			ablateWindow(cfg)
		case "layout":
			ablateLayout(cfg)
		case "cholpipe":
			ablateCholPipe(cfg)
		default:
			log.Fatalf("unknown ablation %q", *ablateFlag)
		}
		return
	}

	if *updateBaseline {
		// The baseline is always the full quick-gate subset, so the
		// committed document and the CI gate can never disagree about
		// the experiment set; narrowing flags do not apply here.
		if *clusterFlag != "both" || *kernelFlag != "all" || *quick {
			log.Print("note: -update-baseline ignores -cluster/-kernel/-quick and regenerates the whole quick subset")
		}
		records, errs := bench.RunExperiments(bench.QuickExperiments())
		exitOnErrors(errs)
		doc := report.NewDocument("kernelbench")
		doc.Kernels = records
		if err := doc.WriteFile(*baselinePath); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d baseline records to %s\n", len(records), *baselinePath)
		return
	}

	exps, err := bench.Experiments(*clusterFlag, *kernelFlag, *quick)
	if err != nil {
		log.Fatal(err)
	}
	records, errs := bench.RunExperiments(exps)

	switch {
	case *jsonOut || *outPath != "":
		doc := report.NewDocument("kernelbench")
		doc.Kernels = records
		if *outPath != "" {
			if err := doc.WriteFile(*outPath); err != nil {
				log.Fatal(err)
			}
		} else if err := doc.Write(os.Stdout); err != nil {
			log.Fatal(err)
		}
	case *headline:
		fmt.Println("Headline kernel results (paper: MemPool 211/225/158 @ 0.81/0.89/0.71; TeraPool 762/880/722 @ 0.74/0.88/0.71):")
		for i := range records {
			fmt.Println("  " + records[i].Fig9Row())
		}
	default:
		fmt.Println("Fig. 8 — IPC and stall breakdown per kernel configuration")
		fmt.Println(report.Header())
		for i := range records {
			fmt.Println(records[i].Fig8Row())
		}
		fmt.Println()
		fmt.Println("Fig. 9a-b — speedup and cycles versus serial single-core execution")
		fmt.Println(report.Header())
		for i := range records {
			fmt.Println(records[i].Fig9Row())
		}
	}
	exitOnErrors(errs)
}

// exitOnErrors reports every failed experiment and exits non-zero if
// there was at least one, so CI cannot mistake a partial run for a
// clean one.
func exitOnErrors(errs []error) {
	for _, err := range errs {
		log.Print(err)
	}
	if len(errs) > 0 {
		os.Exit(1)
	}
}

// ablateWindow reproduces the Section V-B register-blocking argument:
// MACs/cycle for 4x4 vs 4x2 vs 2x2 output windows.
func ablateWindow(cfg *arch.Config) {
	fmt.Printf("MMM window ablation on %s (256x128x256, all cores)\n", cfg.Name)
	rng := rand.New(rand.NewPCG(1, 2))
	for _, w := range []mmm.Window{mmm.Win4x4, mmm.Win4x2, mmm.Win2x2} {
		m := engine.NewMachine(cfg)
		pl, err := mmm.NewPlan(m, 256, 128, 256, cfg.NumCores(), mmm.Options{Window: w})
		if err != nil {
			log.Fatal(err)
		}
		seed := func(n int) []fixed.C15 {
			out := make([]fixed.C15, n)
			for i := range out {
				out[i] = fixed.Pack(int16(rng.IntN(1<<16)-1<<15), int16(rng.IntN(1<<16)-1<<15))
			}
			return out
		}
		if err := pl.WriteA(seed(256 * 128)); err != nil {
			log.Fatal(err)
		}
		if err := pl.WriteB(seed(128 * 256)); err != nil {
			log.Fatal(err)
		}
		mark := m.Mark()
		if err := pl.Run(); err != nil {
			log.Fatal(err)
		}
		rep := m.ReportSince(mark, "mmm", nil)
		loads := float64(rep.Stats.Loads) / float64(rep.Stats.MACs)
		fmt.Printf("  %dx%d window: %6.1f MACs/cycle, IPC %.2f, %.2f loads/MAC\n",
			w.Rows, w.Cols, rep.MACsPerCycle(), rep.IPC(), loads)
	}
}

// ablateCholPipe measures the software-pipelined pair schedule for the
// replicated 4x4 Cholesky: interleaving two independent decompositions
// hides the divide/sqrt latency (the likely mechanism behind the paper's
// 0.71 IPC for the batched configuration).
func ablateCholPipe(cfg *arch.Config) {
	fmt.Printf("Replicated 4x4 Cholesky pipelining ablation on %s (16 per barrier)\n", cfg.Name)
	for _, pipelined := range []bool{false, true} {
		m := engine.NewMachine(cfg)
		pl, err := chol.NewReplicatedPlan(m, 4, cfg.NumCores(), 1, 16)
		if err != nil {
			log.Fatal(err)
		}
		pl.Pipelined = pipelined
		rng := rand.New(rand.NewPCG(9, 9))
		for lane := 0; lane < len(pl.Cores); lane++ {
			for rep := 0; rep < 16; rep++ {
				g := gramian(rng)
				if err := pl.WriteG(lane, rep, g); err != nil {
					log.Fatal(err)
				}
			}
		}
		mark := m.Mark()
		if err := pl.Run(); err != nil {
			log.Fatal(err)
		}
		rep := m.ReportSince(mark, "chol", pl.Cores)
		name := "element-by-element"
		if pipelined {
			name = "pipelined pairs"
		}
		fmt.Printf("  %-20s %8d cycles, IPC %.2f, ext+raw stalls %4.1f%%\n",
			name, rep.Wall, rep.IPC(),
			100*(rep.Fraction(func(s engine.Stats) int64 { return s.ExtStalls })+
				rep.Fraction(func(s engine.Stats) int64 { return s.RawStalls })))
	}
}

// gramian builds one well-conditioned 4x4 input.
func gramian(rng *rand.Rand) []fixed.C15 {
	h := make([]fixed.C15, 8*4)
	for i := range h {
		h[i] = fixed.FromComplex(complex((rng.Float64()*2-1)*0.6, (rng.Float64()*2-1)*0.6))
	}
	return phy.Gramian(h, 8, 4, 4, fixed.FloatToQ15(0.05))
}

// ablateLayout reproduces the Section V-A folding argument: the FFT with
// tile-local folded buffers versus naive interleaved placement.
func ablateLayout(cfg *arch.Config) {
	fmt.Printf("FFT layout ablation on %s (4 x 1024-pt FFTs)\n", cfg.Name)
	rng := rand.New(rand.NewPCG(3, 4))
	for _, lay := range []fft.Layout{fft.Folded, fft.Interleaved} {
		m := engine.NewMachine(cfg)
		pl, err := fft.NewPlan(m, 1024, 4, 1, lay)
		if err != nil {
			log.Fatal(err)
		}
		for j := 0; j < pl.Jobs; j++ {
			x := make([]fixed.C15, 1024)
			for i := range x {
				x[i] = fixed.Pack(int16(rng.IntN(1<<16)-1<<15), int16(rng.IntN(1<<16)-1<<15))
			}
			if err := pl.WriteInput(j, 0, x); err != nil {
				log.Fatal(err)
			}
		}
		mark := m.Mark()
		if err := pl.Run(); err != nil {
			log.Fatal(err)
		}
		rep := m.ReportSince(mark, "fft", nil)
		name := "folded"
		if lay == fft.Interleaved {
			name = "interleaved"
		}
		fmt.Printf("  %-12s %8d cycles, IPC %.2f, mem stalls %4.1f%%, bank conflicts %d\n",
			name, rep.Wall, rep.IPC(), rep.MemStallFraction()*100, m.Mem.Res.ConflictCycles())
	}
}

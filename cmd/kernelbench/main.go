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
	"os"

	"repro/internal/arch"
	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/kernels/fft"
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
		// flag is "both").
		clusters, err := bench.ParseClusters(*clusterFlag)
		if err != nil {
			log.Fatal(err)
		}
		switch *ablateFlag {
		case "window":
			ablateWindow(clusters[0])
		case "layout":
			ablateLayout(clusters[0])
		case "cholpipe":
			ablateCholPipe(clusters[0])
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
	mc := bench.PaperMMMConfigs()[1] // 256x128x256
	fmt.Printf("MMM window ablation on %s (%dx%dx%d, all cores)\n", cfg.Name, mc.M, mc.N, mc.P)
	for idx := 0; idx < 3; idx++ {
		r, err := bench.RunMMMWindow(cfg, mc, idx, false)
		if err != nil {
			log.Fatal(err)
		}
		rep := r.Parallel
		loads := float64(rep.Stats.Loads) / float64(rep.Stats.MACs)
		fmt.Printf("  %s: %6.1f MACs/cycle, IPC %.2f, %.2f loads/MAC\n",
			r.Label, rep.MACsPerCycle(), rep.IPC(), loads)
	}
}

// ablateCholPipe measures the software-pipelined pair schedule for the
// replicated 4x4 Cholesky against the element-by-element one.
func ablateCholPipe(cfg *arch.Config) {
	fmt.Printf("Replicated 4x4 Cholesky pipelining ablation on %s (16 per barrier)\n", cfg.Name)
	for _, pipelined := range []bool{false, true} {
		rep, err := bench.RunCholPipe(cfg, pipelined)
		if err != nil {
			log.Fatal(err)
		}
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

// ablateLayout reproduces the Section V-A folding argument: the FFT with
// tile-local folded buffers versus naive interleaved placement.
func ablateLayout(cfg *arch.Config) {
	fmt.Printf("FFT layout ablation on %s (4 x 1024-pt FFTs)\n", cfg.Name)
	for _, lay := range []fft.Layout{fft.Folded, fft.Interleaved} {
		rep, conflicts, err := bench.RunFFTLayout(cfg, lay)
		if err != nil {
			log.Fatal(err)
		}
		name := "folded"
		if lay == fft.Interleaved {
			name = "interleaved"
		}
		fmt.Printf("  %-12s %8d cycles, IPC %.2f, mem stalls %4.1f%%, bank conflicts %d\n",
			name, rep.Wall, rep.IPC(), rep.MemStallFraction()*100, conflicts)
	}
}

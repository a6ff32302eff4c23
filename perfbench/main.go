// Command perfbench is the worker behind the repository benchmark
// (run.py): it prepares a workload's inputs, performs one measured
// serve, or performs one traced serve, and prints the outcome as one
// JSON line on standard output.
//
//	perfbench prep   -workload NAME -seed N -dir DIR
//	perfbench serve  -dir DIR
//	perfbench traced -dir DIR
//	perfbench ref
//
// Every subcommand runs from the repository root, where the calibration
// artifact lives; DIR is a private run directory. Serves measure with
// one worker per CPU the process may run on, and a traced serve checks
// its output against the untraced stream saved as DIR/reference.jsonl.
// ref times the fixed speed reference task (speedref.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench prep|serve|traced|ref [flags]")
		os.Exit(2)
	}
	fs := flag.NewFlagSet(os.Args[1], flag.ExitOnError)
	dir := fs.String("dir", "", "run directory")
	name := fs.String("workload", "", "workload name (prep)")
	seed := fs.Uint64("seed", 1, "payload seed (prep)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	if *dir == "" && os.Args[1] != "ref" {
		fail(fmt.Errorf("-dir is required"))
	}
	var out any
	var err error
	switch os.Args[1] {
	case "prep":
		var w workload
		if w, err = lookupWorkload(*name); err == nil {
			err = prepare(*dir, w, *seed, w.jobs)
			out = map[string]string{"prepared": w.name}
		}
	case "serve":
		out, err = serveOnce(*dir, runtime.NumCPU())
	case "traced":
		out, err = tracedOnce(*dir, runtime.NumCPU(), filepath.Join(*dir, referenceFile))
	case "ref":
		var refS float64
		refS, err = speedRef()
		out = map[string]float64{"ref_s": refS}
	default:
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

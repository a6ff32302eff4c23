package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The speed reference is a fixed CPU-bound task that uses only the
// standard library, so no change to the program can move it: every
// CPU decodes and re-encodes a fixed JSON document. run.py times it
// between serves and scales the serves' host times by it, because the
// measurement box's speed drifts by up to 2× over minutes while a
// serve's speed relative to this task stays within a few per cent.
const (
	refRecords = 400
	refRounds  = 60
	refRepeats = 3
)

type refRecord struct {
	Name string   `json:"name"`
	A    int64    `json:"a"`
	B    int64    `json:"b"`
	X    float64  `json:"x"`
	Y    float64  `json:"y"`
	Tags []string `json:"tags"`
}

// speedRef returns the median wall time, in seconds, of refRepeats
// runs of the reference task.
func speedRef() (float64, error) {
	recs := make([]refRecord, refRecords)
	for i := range recs {
		recs[i] = refRecord{
			Name: fmt.Sprintf("rec-%d", i), A: int64(i) * 7919, B: int64(i) << 20,
			X: float64(i) / 3, Y: float64(i) * 1.5, Tags: []string{"a", "bb", fmt.Sprint(i % 13)},
		}
	}
	doc, err := json.Marshal(recs)
	if err != nil {
		return 0, err
	}
	times := make([]float64, refRepeats)
	for k := range times {
		t := time.Now()
		errs := make([]error, runtime.NumCPU())
		var wg sync.WaitGroup
		for g := range errs {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < refRounds && errs[g] == nil; r++ {
					var out []refRecord
					if errs[g] = json.Unmarshal(doc, &out); errs[g] == nil {
						_, errs[g] = json.Marshal(out)
					}
				}
			}(g)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		times[k] = time.Since(t).Seconds()
	}
	sort.Float64s(times)
	return times[len(times)/2], nil
}

package pusch

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/waveform"
)

// reuseChainConfig is small enough to run in milliseconds but still
// exercises every chain stage.
func reuseChainConfig() ChainConfig {
	return ChainConfig{
		NSC: 64, NR: 4, NB: 4, NL: 2,
		NSymb: 4, NPilot: 2,
		Scheme: waveform.QPSK,
		SNRdB:  20,
		Seed:   7,
	}
}

func TestChainOnReusedMachineMatchesFresh(t *testing.T) {
	cfg := reuseChainConfig()
	fresh, err := RunChain(cfg)
	if err != nil {
		t.Fatal(err)
	}

	m := engine.NewMachine(arch.MemPool())
	first, err := RunChainOn(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Reset()
	reused, err := RunChainOn(m, cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, pair := range []struct {
		name string
		a, b *ChainResult
	}{
		{"fresh vs RunChainOn", fresh, first},
		{"fresh vs reused", fresh, reused},
	} {
		a, b := pair.a, pair.b
		if a.TotalCycles != b.TotalCycles {
			t.Errorf("%s: cycles %d vs %d", pair.name, a.TotalCycles, b.TotalCycles)
		}
		if a.BER != b.BER || a.EVMdB != b.EVMdB || a.SigmaEst != b.SigmaEst {
			t.Errorf("%s: link metrics diverge: BER %g/%g EVM %g/%g sigma %g/%g",
				pair.name, a.BER, b.BER, a.EVMdB, b.EVMdB, a.SigmaEst, b.SigmaEst)
		}
		for _, st := range Stages {
			if a.Stages[st].Wall != b.Stages[st].Wall {
				t.Errorf("%s: stage %s wall %d vs %d", pair.name, st, a.Stages[st].Wall, b.Stages[st].Wall)
			}
		}
	}
}

// TestReusedPipelinedSlotRecyclesTableAndMarks pins the machine-reuse
// contract on the pipelined TeraPool chain: once a reused machine has
// served one slot, the next slot allocates nothing in the bank-
// reservation table or in the per-beat machine snapshots. The rest of
// a slot (TX, plans, scoring) allocates per slot by design, so the pin
// samples every allocation into the heap profile and counts only the
// objects allocated under those frames.
func TestReusedPipelinedSlotRecyclesTableAndMarks(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	cfg := goldenChainConfig()
	cfg.Cluster = arch.TeraPool()
	cfg.Layout = StockPipelined(cfg.Cluster)
	m := engine.NewMachine(cfg.Cluster)
	slot := func() {
		m.Reset()
		if _, err := RunChainOn(m, cfg); err != nil {
			t.Fatal(err)
		}
	}
	under := []string{
		"repro/internal/tcdm.(*Reservation).",
		"repro/internal/engine.(*Machine).Mark",
		"repro/internal/engine.(*Machine).Remark",
	}
	slot()
	before := allocsUnder(under...)
	if before[under[0]] == 0 {
		t.Fatal("the first slot allocated no reservation rows: the heap profile sees nothing")
	}
	slot()
	after := allocsUnder(under...)
	for fn, n := range after {
		if d := n - before[fn]; d != 0 {
			t.Errorf("second slot allocates %d objects under %s, want 0", d, fn)
		}
	}
}

// allocsUnder returns the heap profile's cumulative allocated-object
// counts for each function name prefix, counting a sample when any
// frame of its stack matches. It collects first, so the profile covers
// every allocation made before the call.
func allocsUnder(prefixes ...string) map[string]int64 {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+50)
		n, ok = runtime.MemProfile(recs, true)
	}
	recs = recs[:n]
	counts := make(map[string]int64)
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		hit := make(map[string]bool)
		for {
			f, more := frames.Next()
			for _, p := range prefixes {
				if strings.HasPrefix(f.Function, p) {
					hit[p] = true
				}
			}
			if !more {
				break
			}
		}
		for p := range hit {
			counts[p] += r.AllocObjects
		}
	}
	return counts
}

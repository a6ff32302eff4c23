package bench

import (
	"strings"
	"testing"

	"repro/internal/arch"
)

func TestPaperConfigsMatchThePaper(t *testing.T) {
	mp := PaperFFTConfigs(arch.MemPool())
	if mp[0].Count != 16 || mp[0].N != 256 {
		t.Errorf("MemPool config 0 = %+v, want 16 FFTs of 256", mp[0])
	}
	if mp[1].Count != 1 || mp[1].N != 4096 {
		t.Errorf("MemPool config 1 = %+v, want 1 FFT of 4096", mp[1])
	}
	if mp[2].Count != 16 || mp[2].Batch != 16 {
		t.Errorf("MemPool config 2 = %+v, want 1x16 batched", mp[2])
	}
	tp := PaperFFTConfigs(arch.TeraPool())
	if tp[0].Count != 64 || tp[1].Count != 4 || tp[2].Count != 64 {
		t.Errorf("TeraPool FFT counts = %d/%d/%d, want 64/4/64", tp[0].Count, tp[1].Count, tp[2].Count)
	}
	ch := PaperCholConfigs(arch.TeraPool())
	if ch[2].Pairs != 128 {
		t.Errorf("TeraPool pair count = %d, want 128", ch[2].Pairs)
	}
}

func TestRunFFTSanity(t *testing.T) {
	cfg := arch.MemPool()
	r, err := RunFFT(cfg, PaperFFTConfigs(cfg)[0])
	if err != nil {
		t.Fatal(err)
	}
	if r.CoresUsed != 256 {
		t.Errorf("cores used = %d", r.CoresUsed)
	}
	if s := r.Speedup(); s <= 1 || s > float64(r.CoresUsed) {
		t.Errorf("speedup %.1f outside (1, %d]", s, r.CoresUsed)
	}
	if ipc := r.Parallel.IPC(); ipc <= 0 || ipc > 1 {
		t.Errorf("IPC %.2f outside (0,1]", ipc)
	}
	if r.SerialIPC <= 0 || r.SerialIPC > 1 {
		t.Errorf("serial IPC %.2f outside (0,1]", r.SerialIPC)
	}
	rec := r.Record()
	if rec.Kernel != "fft" || rec.Cluster != "MemPool" {
		t.Errorf("record identity = %s/%s", rec.Kernel, rec.Cluster)
	}
	if rec.Parallel.Cycles != r.Parallel.Wall || rec.SerialCycles != r.SerialWall {
		t.Error("record cycles disagree with the result")
	}
	row := rec.Fig8Row()
	if !strings.Contains(row, "MemPool") || !strings.Contains(row, "IPC") {
		t.Errorf("Fig8Row = %q", row)
	}
	if !strings.Contains(rec.Fig9Row(), "speedup") {
		t.Error("Fig9Row missing speedup")
	}
}

func TestExperimentRegistry(t *testing.T) {
	all, err := Experiments("both", "all", false)
	if err != nil {
		t.Fatal(err)
	}
	// 9 paper configs per cluster plus 6 scaling points.
	if len(all) != 24 {
		t.Errorf("full set has %d experiments, want 24", len(all))
	}
	quick := QuickExperiments()
	// 3 quick paper configs per cluster plus the 6 scaling points.
	if len(quick) != 12 {
		t.Errorf("quick set has %d experiments, want 12", len(quick))
	}
	seen := make(map[string]bool)
	for _, e := range all {
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %q", e.ID)
		}
		seen[e.ID] = true
	}
	if _, err := Experiments("gigapool", "all", false); err == nil {
		t.Error("unknown cluster accepted")
	}
	if _, err := Experiments("both", "sort", false); err == nil {
		t.Error("unknown kernel accepted")
	}
}

func TestExperimentIDMatchesRecordKey(t *testing.T) {
	exps, err := Experiments("mempool", "chol", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 1 {
		t.Fatalf("quick mempool chol = %d experiments, want 1", len(exps))
	}
	r, err := exps[0].Run()
	if err != nil {
		t.Fatal(err)
	}
	rec := r.Record()
	if key := rec.Key(); key != exps[0].ID {
		t.Errorf("record key %q != experiment ID %q", key, exps[0].ID)
	}
}

func TestRunCholSanity(t *testing.T) {
	cfg := arch.MemPool()
	r, err := RunChol(cfg, PaperCholConfigs(cfg)[0])
	if err != nil {
		t.Fatal(err)
	}
	if s := r.Speedup(); s <= 1 || s > float64(cfg.NumCores()) {
		t.Errorf("speedup %.1f out of range", s)
	}
}

func TestRunMMMWindowOrdering(t *testing.T) {
	// The register-blocking argument: bigger windows retire more MACs
	// per cycle.
	rates := make([]float64, 3)
	for i := range rates {
		r, err := RunMMMWindow(arch.MemPool(), PaperMMMConfigs()[0], i, true)
		if err != nil {
			t.Fatal(err)
		}
		rates[i] = r.Parallel.MACsPerCycle()
	}
	if !(rates[0] > rates[1] && rates[1] > rates[2]) {
		t.Errorf("window MACs/cycle ordering violated: %v", rates)
	}
	if _, err := RunMMMWindow(arch.MemPool(), PaperMMMConfigs()[0], 9, true); err == nil {
		t.Error("bad window index accepted")
	}
}

func TestDeepenGrowsCapacityOnly(t *testing.T) {
	cfg := arch.MemPool()
	big := deepen(cfg, cfg.MemWords()*3)
	if big.MemWords() < cfg.MemWords()*3 {
		t.Errorf("deepen did not reach the requested capacity")
	}
	if big.NumBanks() != cfg.NumBanks() || big.NumCores() != cfg.NumCores() {
		t.Error("deepen changed the cluster shape")
	}
	same := deepen(cfg, 10)
	if same.BankWords != cfg.BankWords {
		t.Error("deepen grew a config that already fits")
	}
}

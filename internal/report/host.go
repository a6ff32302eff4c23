package report

// HostSection records the host machine's throughput on the cycle-
// accurate reference slots: how many simulated slots per wall-clock
// second this tree sustains on the benchgate gate slot and the
// full-scale TeraPool slot. Like Service it is informational — the
// numbers vary host to host and run to run, so Diff never walks them —
// but committing them per BENCH artifact gives the engine hot-path
// optimizations a recorded trajectory, and the CI host-throughput
// smoke step gates new trees against the committed numbers (see
// cmd/benchgate -host-smoke).
type HostSection struct {
	Slots []HostSlotRecord `json:"slots"`
	// Benchmarks carries a change's old -> new host benchmark figures,
	// for the speed claims that name a go benchmark rather than a
	// reference slot. An artifact whose section has no Slots leaves the
	// smoke gate's baseline where it was.
	Benchmarks []HostBenchRecord `json:"benchmarks,omitempty"`
}

// HostBenchRecord is one go benchmark timed on the parent tree and on
// the change, in alternating runs on one host: the minimum ns/op of
// each side, since a minimum is the stable figure on a noisy host.
type HostBenchRecord struct {
	// Name is the benchmark, as `go test -bench` names it.
	Name string `json:"name"`
	// Host describes the machine the pairs ran on.
	Host string `json:"host"`
	// Pairs is the number of alternating old/new runs.
	Pairs      int   `json:"pairs"`
	OldNsPerOp int64 `json:"old_ns_per_op"`
	NewNsPerOp int64 `json:"new_ns_per_op"`
	OldAllocs  int64 `json:"old_allocs_per_op"`
	NewAllocs  int64 `json:"new_allocs_per_op"`
	OldBytes   int64 `json:"old_bytes_per_op"`
	NewBytes   int64 `json:"new_bytes_per_op"`
}

// HostSlotRecord is the host cost of one reference slot configuration.
type HostSlotRecord struct {
	// Name identifies the configuration ("mempool-64sc",
	// "terapool-256sc").
	Name    string `json:"name"`
	Cluster string `json:"cluster"`
	NSC     int    `json:"nsc"`
	// Runs is the number of timed cycle-accurate slot executions
	// (after one untimed warm-up on a reused machine).
	Runs int `json:"runs"`
	// WallSeconds is the total wall time of the timed runs;
	// SlotsPerSec = Runs / WallSeconds.
	WallSeconds float64 `json:"wall_seconds"`
	SlotsPerSec float64 `json:"slots_per_sec"`
	// BestRunSeconds is the fastest single run — the number the smoke
	// gate compares, since a minimum is far more stable than a mean on
	// a noisy shared runner.
	BestRunSeconds float64 `json:"best_run_seconds"`
}

// Find returns the named record, or nil.
func (h *HostSection) Find(name string) *HostSlotRecord {
	if h == nil {
		return nil
	}
	for i := range h.Slots {
		if h.Slots[i].Name == name {
			return &h.Slots[i]
		}
	}
	return nil
}

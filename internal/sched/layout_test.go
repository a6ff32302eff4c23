package sched

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/pusch"
)

// TestSpecLayoutRoundTrip pins the layout wire coordinate: specs carry
// it through Job materialization and back through JobSpec, "pipe"
// resolves against the job's effective cluster.
func TestSpecLayoutRoundTrip(t *testing.T) {
	defaults := tinyChain()

	sp := Spec{Arrival: 10, Layout: "pipe/f64/b32/d64"}
	job, err := sp.Job(defaults)
	if err != nil {
		t.Fatal(err)
	}
	if got := job.Chain.Layout.String(); got != "pipe/f64/b32/d64" {
		t.Fatalf("materialized layout %q", got)
	}
	back, err := JobSpec(job)
	if err != nil {
		t.Fatal(err)
	}
	if back.Layout != "pipe/f64/b32/d64" {
		t.Fatalf("round-tripped layout %q", back.Layout)
	}

	// "pipe" resolves to the stock split of the job's cluster.
	stock := Spec{Layout: "pipe", Cluster: "mempool"}
	job, err = stock.Job(defaults)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := job.Chain.Layout.String(), pusch.StockPipelined(arch.MemPool()).String(); got != want {
		t.Fatalf("stock layout resolved to %q, want %q", got, want)
	}

	// Unknown layouts are per-line errors.
	if _, err := (Spec{Layout: "bogus"}).Job(defaults); err == nil {
		t.Fatal("bogus layout accepted")
	}

	// Sequential jobs keep the pre-layout wire bytes: no layout field.
	seq, err := (Spec{Arrival: 1}).Job(defaults)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := JobSpec(seq)
	if err != nil {
		t.Fatal(err)
	}
	if wire.Layout != "" {
		t.Fatalf("sequential job serialized layout %q", wire.Layout)
	}

	// A spec that swaps the cluster without pinning a layout re-resolves
	// the inherited default against its own cluster: a TeraPool-stock
	// default served on MemPool must not carry TeraPool core ids.
	tpDefaults := defaults
	tpDefaults.Cluster = arch.TeraPool()
	tpDefaults.Layout = pusch.StockPipelined(arch.TeraPool())
	swapped, err := (Spec{Cluster: "mempool"}).Job(tpDefaults)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := swapped.Chain.Layout.String(), pusch.StockPipelined(arch.MemPool()).String(); got != want {
		t.Fatalf("cluster-swapped job layout %q, want %q", got, want)
	}
	// An explicit default split that fits the new cluster carries over
	// verbatim.
	smallDefaults := tpDefaults
	smallDefaults.Layout, err = pusch.PipelinedSplit(arch.TeraPool(), 64, 32, 64)
	if err != nil {
		t.Fatal(err)
	}
	swapped, err = (Spec{Cluster: "mempool"}).Job(smallDefaults)
	if err != nil {
		t.Fatal(err)
	}
	if got := swapped.Chain.Layout.String(); got != "pipe/f64/b32/d64" {
		t.Fatalf("fitting default split rewritten to %q", got)
	}
}

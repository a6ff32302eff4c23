// Fleet integration lives in an external test package: campaign cannot
// import the serving layers (sched and fleet build on campaign's seed
// derivation), but a campaign family must still be servable as fleet
// traffic — the cross-layer contract this file pins.
package campaign_test

import (
	"bytes"
	"testing"

	"repro/internal/arch"
	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/channel"
	"repro/internal/fleet"
	"repro/internal/pusch"
	"repro/internal/sched"
	"repro/internal/waveform"
)

func fleetBase() pusch.ChainConfig {
	base := pusch.ChainConfig{
		Cluster: arch.MemPool(),
		NSC:     64, NR: 4, NB: 4, NL: 1,
		NSymb: 3, NPilot: 2,
		Scheme: waveform.QPSK,
		SNRdB:  20,
	}
	return sched.Mobile(base, channel.TDLB, 30, 0)
}

// TestFleetServesCampaignFamily: a campaign scenario family rides a
// 2-cell fleet as roaming UEs — every chain scenario served under its
// own name, the use-case entry skipped, UE identities drawn from the
// fleet-scale population, and the stream byte-identical across
// measurement worker counts.
func TestFleetServesCampaignFamily(t *testing.T) {
	sweep := campaign.SNRSweep(fleetBase(), 8, 14, 2) // 4 chain scenarios
	uc := bench.UseCaseConfig{
		Cluster: arch.MemPool(),
		Symbols: 2, DataSymbols: 1,
		NFFT: 64, NR: 4, NB: 4, NL: 2,
		CholPerRound: 1,
	}
	scenarios := append([]campaign.Scenario{sweep[0], {Name: "uc", UseCase: &uc}}, sweep[1:]...)

	const cells = 2
	jobs, skipped := fleet.FromScenarios(cells, scenarios, 500_000, 7)
	if skipped != 1 || len(jobs) != len(sweep) {
		t.Fatalf("adapted %d jobs, %d skipped; want %d and 1", len(jobs), skipped, len(sweep))
	}
	pop := fleet.Population(cells)
	for i, j := range jobs {
		if j.Chain.Channel.Seed != pop.FadingSeed(7, i) {
			t.Fatalf("job %d fading seed %x, want fleet population seed %x", i, j.Chain.Channel.Seed, pop.FadingSeed(7, i))
		}
		if j.Chain.Channel.TimeMs == 0 && j.Arrival != 0 {
			t.Fatalf("job %d lost its channel time", i)
		}
	}

	cfg := fleet.Config{
		Cells:  fleet.Homogeneous(cells, fleet.Cell{Servers: 2}),
		Policy: fleet.SINRAware,
		Seed:   7,
	}
	var ref bytes.Buffer
	cfg.Workers = 1
	sum, err := (&fleet.Fleet{Cfg: cfg}).WriteJSONL(&ref, jobs)
	if err != nil {
		t.Fatalf("fleet serve: %v", err)
	}
	if sum.Served != len(jobs) || sum.Failed != 0 {
		t.Fatalf("fleet summary %+v, want every scenario served", sum)
	}
	served := map[string]bool{}
	results, _ := (&fleet.Fleet{Cfg: cfg}).Serve(jobs)
	for _, r := range results {
		served[r.Name] = true
	}
	for _, sc := range sweep {
		if !served[sc.Name] {
			t.Fatalf("scenario %q never served", sc.Name)
		}
	}

	var again bytes.Buffer
	cfg.Workers = 3
	if _, err := (&fleet.Fleet{Cfg: cfg}).WriteJSONL(&again, jobs); err != nil {
		t.Fatalf("fleet serve (3 workers): %v", err)
	}
	if ref.String() != again.String() {
		t.Fatalf("campaign fleet stream differs between workers=1 and workers=3")
	}
}

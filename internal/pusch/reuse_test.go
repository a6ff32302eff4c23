package pusch

import (
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

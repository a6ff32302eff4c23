package sched

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/channel"
	"repro/internal/pusch"
)

// cacheKeyGoldenConfigs is the Table I mix on both stock clusters, on
// the sequential and the stock pipelined layout, once with a pinned
// payload seed on the legacy channel and once on a mobile TDL-B link
// with comb interpolation — every branch of the key derivation.
func cacheKeyGoldenConfigs() []pusch.ChainConfig {
	var cfgs []pusch.ChainConfig
	for _, cl := range []*arch.Config{arch.MemPool(), arch.TeraPool()} {
		for _, lay := range []pusch.Layout{pusch.Sequential, pusch.StockPipelined(cl)} {
			for i, e := range TableIMix(nil) {
				cfg := e.Chain
				cfg.Cluster = cl
				cfg.Layout = lay
				cfg.Seed = 0x5eed + uint64(i)
				cfgs = append(cfgs, cfg)
				cfg.Channel = channel.Spec{Profile: channel.TDLB, DopplerHz: 30, RicianK: 1.5, Seed: 0xabc + uint64(i), TimeMs: 2.25}
				cfg.InterpolateChannel = true
				cfg.SNRdB = -3.5
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return cfgs
}

// TestCacheKeyGolden pins the exact key bytes of the service-time
// cache: a persisted cache file is only reusable while every key stays
// byte-identical, so any change here must come with a CacheKeySchema
// bump.
func TestCacheKeyGolden(t *testing.T) {
	want := []string{
		"tc2|chain/mempool/256c/1ue/chol0/qpsk|nsc256/nr16/nb8/sy6/pi2|snr20|amp0.25:0.5|taps4|seed5eed|archdf740d41995dc463",
		"tc2|chain/mempool/256c/1ue/chol0/qpsk/tdl-b/csabc/t2.25|nsc256/nr16/nb8/sy6/pi2|snr-3.5|amp0.25:0.5|taps4|seed5eed|interp|fd30/k1.5/ds100|archdf740d41995dc463",
		"tc2|chain/mempool/256c/2ue/chol0/16qam|nsc256/nr16/nb8/sy6/pi2|snr20|amp0.25:0.5|taps4|seed5eee|archdf740d41995dc463",
		"tc2|chain/mempool/256c/2ue/chol0/16qam/tdl-b/csabd/t2.25|nsc256/nr16/nb8/sy6/pi2|snr-3.5|amp0.25:0.5|taps4|seed5eee|interp|fd30/k1.5/ds100|archdf740d41995dc463",
		"tc2|chain/mempool/256c/4ue/chol0/64qam|nsc256/nr16/nb8/sy6/pi2|snr20|amp0.25:0.5|taps4|seed5eef|archdf740d41995dc463",
		"tc2|chain/mempool/256c/4ue/chol0/64qam/tdl-b/csabe/t2.25|nsc256/nr16/nb8/sy6/pi2|snr-3.5|amp0.25:0.5|taps4|seed5eef|interp|fd30/k1.5/ds100|archdf740d41995dc463",
		"tc2|chain/mempool/256c/1ue/chol0/qpsk/pipe/f128/b64/d64|nsc256/nr16/nb8/sy6/pi2|snr20|amp0.25:0.5|taps4|seed5eed|archdf740d41995dc463",
		"tc2|chain/mempool/256c/1ue/chol0/qpsk/tdl-b/csabc/t2.25/pipe/f128/b64/d64|nsc256/nr16/nb8/sy6/pi2|snr-3.5|amp0.25:0.5|taps4|seed5eed|interp|fd30/k1.5/ds100|archdf740d41995dc463",
		"tc2|chain/mempool/256c/2ue/chol0/16qam/pipe/f128/b64/d64|nsc256/nr16/nb8/sy6/pi2|snr20|amp0.25:0.5|taps4|seed5eee|archdf740d41995dc463",
		"tc2|chain/mempool/256c/2ue/chol0/16qam/tdl-b/csabd/t2.25/pipe/f128/b64/d64|nsc256/nr16/nb8/sy6/pi2|snr-3.5|amp0.25:0.5|taps4|seed5eee|interp|fd30/k1.5/ds100|archdf740d41995dc463",
		"tc2|chain/mempool/256c/4ue/chol0/64qam/pipe/f128/b64/d64|nsc256/nr16/nb8/sy6/pi2|snr20|amp0.25:0.5|taps4|seed5eef|archdf740d41995dc463",
		"tc2|chain/mempool/256c/4ue/chol0/64qam/tdl-b/csabe/t2.25/pipe/f128/b64/d64|nsc256/nr16/nb8/sy6/pi2|snr-3.5|amp0.25:0.5|taps4|seed5eef|interp|fd30/k1.5/ds100|archdf740d41995dc463",
		"tc2|chain/terapool/1024c/1ue/chol0/qpsk|nsc256/nr16/nb8/sy6/pi2|snr20|amp0.25:0.5|taps4|seed5eed|arch52f6289be17f4c26",
		"tc2|chain/terapool/1024c/1ue/chol0/qpsk/tdl-b/csabc/t2.25|nsc256/nr16/nb8/sy6/pi2|snr-3.5|amp0.25:0.5|taps4|seed5eed|interp|fd30/k1.5/ds100|arch52f6289be17f4c26",
		"tc2|chain/terapool/1024c/2ue/chol0/16qam|nsc256/nr16/nb8/sy6/pi2|snr20|amp0.25:0.5|taps4|seed5eee|arch52f6289be17f4c26",
		"tc2|chain/terapool/1024c/2ue/chol0/16qam/tdl-b/csabd/t2.25|nsc256/nr16/nb8/sy6/pi2|snr-3.5|amp0.25:0.5|taps4|seed5eee|interp|fd30/k1.5/ds100|arch52f6289be17f4c26",
		"tc2|chain/terapool/1024c/4ue/chol0/64qam|nsc256/nr16/nb8/sy6/pi2|snr20|amp0.25:0.5|taps4|seed5eef|arch52f6289be17f4c26",
		"tc2|chain/terapool/1024c/4ue/chol0/64qam/tdl-b/csabe/t2.25|nsc256/nr16/nb8/sy6/pi2|snr-3.5|amp0.25:0.5|taps4|seed5eef|interp|fd30/k1.5/ds100|arch52f6289be17f4c26",
		"tc2|chain/terapool/1024c/1ue/chol0/qpsk/pipe/f512/b256/d256|nsc256/nr16/nb8/sy6/pi2|snr20|amp0.25:0.5|taps4|seed5eed|arch52f6289be17f4c26",
		"tc2|chain/terapool/1024c/1ue/chol0/qpsk/tdl-b/csabc/t2.25/pipe/f512/b256/d256|nsc256/nr16/nb8/sy6/pi2|snr-3.5|amp0.25:0.5|taps4|seed5eed|interp|fd30/k1.5/ds100|arch52f6289be17f4c26",
		"tc2|chain/terapool/1024c/2ue/chol0/16qam/pipe/f512/b256/d256|nsc256/nr16/nb8/sy6/pi2|snr20|amp0.25:0.5|taps4|seed5eee|arch52f6289be17f4c26",
		"tc2|chain/terapool/1024c/2ue/chol0/16qam/tdl-b/csabd/t2.25/pipe/f512/b256/d256|nsc256/nr16/nb8/sy6/pi2|snr-3.5|amp0.25:0.5|taps4|seed5eee|interp|fd30/k1.5/ds100|arch52f6289be17f4c26",
		"tc2|chain/terapool/1024c/4ue/chol0/64qam/pipe/f512/b256/d256|nsc256/nr16/nb8/sy6/pi2|snr20|amp0.25:0.5|taps4|seed5eef|arch52f6289be17f4c26",
		"tc2|chain/terapool/1024c/4ue/chol0/64qam/tdl-b/csabe/t2.25/pipe/f512/b256/d256|nsc256/nr16/nb8/sy6/pi2|snr-3.5|amp0.25:0.5|taps4|seed5eef|interp|fd30/k1.5/ds100|arch52f6289be17f4c26",
	}
	cfgs := cacheKeyGoldenConfigs()
	if len(cfgs) != len(want) {
		t.Fatalf("%d configurations, %d golden keys", len(cfgs), len(want))
	}
	for i, cfg := range cfgs {
		got, err := cfg.CacheKey()
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if got != want[i] {
			t.Errorf("config %d key:\n got  %s\n want %s", i, got, want[i])
		}
	}
}

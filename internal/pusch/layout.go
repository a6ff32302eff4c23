package pusch

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/arch"
)

// Layout maps the chain stages onto core partitions, the spatial-
// pipelining axis of the TeraPool SDR follow-up papers: instead of
// every kernel spanning the whole cluster with the stages running back
// to back, disjoint partitions host the stages concurrently, so OFDM
// symbol k is in MIMO detection while symbol k+1 is being beamformed
// and symbol k+2 is in the FFT.
//
// A Layout is its wire form "pipe/f<F>/b<B>/d<D>": the first F cores
// demodulate (FFT), the next B beamform, and the next D form the
// detection partition shared by channel estimation, the noise combine
// and MIMO detection. F+B+D may be less than the cluster size — the
// remaining cores idle, which at small allocations is cheaper than
// enrolling them in barriers. Layouts compare with ==.
//
// The zero value is the sequential layout — every stage owns all cores,
// one symbol in flight — and reproduces the pre-layout chain cycle for
// cycle.
type Layout struct {
	F int // FFT partition cores, from core 0
	B int // beamforming partition cores, after the FFT partition
	D int // detection (CHE, NE, MIMO) partition cores, after beamforming
}

// Sequential is the zero-value layout: all stages on all cores, one
// symbol at a time, bit-identical to the pre-layout chain.
var Sequential = Layout{}

// Pipelined reports whether the layout partitions the cluster.
func (l Layout) Pipelined() bool { return l != Sequential }

// PipelinedSplit builds the three-way pipelined layout f/b/d, checking
// that it fits the cluster.
func PipelinedSplit(cluster *arch.Config, f, b, d int) (Layout, error) {
	switch {
	case f <= 0 || b <= 0 || d <= 0:
		return Layout{}, fmt.Errorf("pusch: layout split %d/%d/%d must be positive", f, b, d)
	case f+b+d > cluster.NumCores():
		return Layout{}, fmt.Errorf("pusch: layout split %d+%d+%d exceeds the %d-core cluster", f, b, d, cluster.NumCores())
	}
	return Layout{F: f, B: b, D: d}, nil
}

// StockPipelined returns the stock partitioned layout for a cluster:
// half the cores to the FFT, a quarter to beamforming and a quarter to
// the detection partition. The split was tuned with campaign.LayoutSweep
// on the stock MemPool/TeraPool shapes over the reduced-dimension
// functional slots (it won both the 64-SC MemPool gate slot and the
// 256-SC TeraPool slot); sweep alternatives for other workloads.
func StockPipelined(cluster *arch.Config) Layout {
	c := cluster.NumCores()
	l, err := PipelinedSplit(cluster, c/2, c/4, c/4)
	if err != nil {
		// Unreachable for any validated cluster: the split covers the
		// cores exactly and every term is positive for >= 4 cores; tiny
		// custom clusters fall back to sequential.
		return Sequential
	}
	return l
}

// ForCluster returns the layout a job or cell inherits when it swaps
// to cluster (nil is the measurement default, stock MemPool): l itself
// when the cluster can host its split, otherwise the cluster's stock
// pipelined split. The operator asked for pipelined service, and the
// stock split is what "pipe" resolves to there. Sequential layouts fit
// every cluster.
func (l Layout) ForCluster(cluster *arch.Config) Layout {
	if !l.Pipelined() {
		return l
	}
	if cluster == nil {
		cluster = arch.MemPool()
	}
	if _, err := PipelinedSplit(cluster, l.F, l.B, l.D); err != nil {
		return StockPipelined(cluster)
	}
	return l
}

// String renders the layout's wire coordinate: "sequential" or
// "pipe/f<F>/b<B>/d<D>".
func (l Layout) String() string {
	if !l.Pipelined() {
		return "sequential"
	}
	return "pipe/f" + strconv.Itoa(l.F) + "/b" + strconv.Itoa(l.B) + "/d" + strconv.Itoa(l.D)
}

// ParseLayout resolves a layout name against a cluster: "" / "seq" /
// "sequential" is the sequential layout, "pipe" / "pipelined" the stock
// partitioned layout for that cluster, and "pipe/f<F>/b<B>/d<D>" an
// explicit three-way split (e.g. "pipe/f64/b32/d64").
func ParseLayout(name string, cluster *arch.Config) (Layout, error) {
	switch strings.ToLower(name) {
	case "", "seq", "sequential":
		return Sequential, nil
	case "pipe", "pipelined":
		return StockPipelined(cluster), nil
	}
	parts := strings.Split(strings.ToLower(name), "/")
	if len(parts) == 4 && parts[0] == "pipe" {
		sizes := make([]int, 3)
		for i, prefix := range []string{"f", "b", "d"} {
			tok := parts[i+1]
			if !strings.HasPrefix(tok, prefix) {
				return Layout{}, fmt.Errorf("pusch: layout %q: want %s<cores> at position %d", name, prefix, i+1)
			}
			n, err := strconv.Atoi(tok[1:])
			if err != nil {
				return Layout{}, fmt.Errorf("pusch: layout %q: %s is not a core count", name, tok)
			}
			sizes[i] = n
		}
		return PipelinedSplit(cluster, sizes[0], sizes[1], sizes[2])
	}
	return Layout{}, fmt.Errorf("pusch: unknown layout %q (want sequential, pipe, or pipe/f<F>/b<B>/d<D>)", name)
}

// validate checks a pipelined layout against the cluster and the FFT's
// lane demand: positive counts that fit the cluster, and an FFT
// partition able to host at least one NSC-point transform.
func (l Layout) validate(cluster *arch.Config, nsc int) error {
	if !l.Pipelined() {
		return nil
	}
	if _, err := PipelinedSplit(cluster, l.F, l.B, l.D); err != nil {
		return err
	}
	if lanes := nsc / 16; l.F < lanes {
		return fmt.Errorf("pusch: one %d-point FFT needs %d lanes, layout FFT partition has %d cores", nsc, lanes, l.F)
	}
	return nil
}

// stageCores holds one core set per chain stage. Kernel plans carve
// their lane sets from a stage's set in order, so a set is also a
// mapping from lane index to physical core.
type stageCores struct {
	fft, bf, che, ne, mimo []int
}

// partitions returns each stage's core partition on an n-core cluster:
// the whole cluster for every stage under the sequential layout, else
// the contiguous f/b/d split.
func (l Layout) partitions(n int) stageCores {
	if !l.Pipelined() {
		all := coreRange(0, n)
		return stageCores{all, all, all, all, all}
	}
	det := coreRange(l.F+l.B, l.D)
	return stageCores{coreRange(0, l.F), coreRange(l.F, l.B), det, det, det}
}

// coreRange returns the contiguous core set [lo, lo+n).
func coreRange(lo, n int) []int {
	cs := make([]int, n)
	for i := range cs {
		cs[i] = lo + i
	}
	return cs
}

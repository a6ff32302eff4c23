package engine

import (
	"testing"

	"repro/internal/arch"
)

// TestJobNotBefore checks the inter-partition handshake: cores earlier
// than the job's NotBefore wait in WFI before phase 0, cores already
// past it start immediately.
func TestJobNotBefore(t *testing.T) {
	m := NewMachine(arch.MemPool())
	// Advance cores 0..3 to a known point.
	if err := m.Run(Job{
		Name:  "warm",
		Cores: []int{0, 1, 2, 3},
		Phases: []Phase{{Name: "w", Work: func(p *Proc) {
			p.Tick(50)
		}}},
	}); err != nil {
		t.Fatal(err)
	}
	warm := m.MaxTime([]int{0, 1, 2, 3})
	if warm < 50 {
		t.Fatalf("warm-up finished at %d, expected >= 50", warm)
	}
	notBefore := warm + 1000
	if err := m.Run(Job{
		Name:      "late",
		Cores:     []int{4, 5, 6, 7},
		NotBefore: notBefore,
		Phases: []Phase{{Name: "l", Work: func(p *Proc) {
			if p.Now() < notBefore {
				t.Errorf("core %d started at %d, before NotBefore %d", p.Core, p.Now(), notBefore)
			}
			p.Tick(1)
		}}},
	}); err != nil {
		t.Fatal(err)
	}
	if got := m.CoreStats(4).WfiStalls; got < notBefore-3 {
		t.Errorf("core 4 WFI stalls = %d, expected the NotBefore wait (~%d)", got, notBefore)
	}
	// A job already past the timestamp must not be delayed: no WFI wait
	// is charged (the single-core job has no barriers either).
	wfiBefore := m.CoreStats(0).WfiStalls
	if err := m.Run(Job{
		Name:      "ontime",
		Cores:     []int{0},
		NotBefore: 10, // long past
		Phases:    []Phase{{Name: "o", Work: func(p *Proc) { p.Tick(1) }}},
	}); err != nil {
		t.Fatal(err)
	}
	if got := m.CoreStats(0).WfiStalls; got != wfiBefore {
		t.Errorf("past NotBefore charged a WFI wait: %d -> %d", wfiBefore, got)
	}
}

// TestPartitionBarrier checks that Barrier over a subset aligns exactly
// that subset to a common release time and leaves the rest of the
// cluster untouched.
func TestPartitionBarrier(t *testing.T) {
	m := NewMachine(arch.MemPool())
	if err := m.Run(Job{
		Name:  "skew",
		Cores: []int{0, 1, 2, 3},
		Phases: []Phase{{Name: "s", Work: func(p *Proc) {
			p.Tick(10 * (p.Lane + 1))
		}}},
	}); err != nil {
		t.Fatal(err)
	}
	outside := m.CoreTime(8)
	part := []int{0, 1, 2, 3}
	m.Barrier(part)
	release := m.CoreTime(0)
	for _, c := range part {
		if m.CoreTime(c) != release {
			t.Errorf("core %d at %d after partition barrier, want %d", c, m.CoreTime(c), release)
		}
	}
	if m.CoreTime(8) != outside {
		t.Errorf("partition barrier moved outside core 8: %d -> %d", outside, m.CoreTime(8))
	}
	if release <= 40 {
		t.Errorf("release %d does not include barrier costs", release)
	}
}

// TestClusterBarrierIsBarrierAll pins the equivalence the sequential
// chain's goldens rest on: ClusterBarrier and Barrier(nil) are the same
// operation.
func TestClusterBarrierIsBarrierAll(t *testing.T) {
	a := NewMachine(arch.MemPool())
	b := NewMachine(arch.MemPool())
	work := Job{
		Name:  "w",
		Cores: []int{0, 1, 2, 3, 4, 5, 6, 7},
		Phases: []Phase{{Name: "w", Work: func(p *Proc) {
			p.Tick(5 * (p.Lane + 1))
		}}},
	}
	if err := a.Run(work); err != nil {
		t.Fatal(err)
	}
	if err := b.Run(work); err != nil {
		t.Fatal(err)
	}
	a.ClusterBarrier()
	b.Barrier(nil)
	for c := 0; c < a.Cfg.NumCores(); c++ {
		if a.CoreTime(c) != b.CoreTime(c) {
			t.Fatalf("core %d: ClusterBarrier %d vs Barrier(nil) %d", c, a.CoreTime(c), b.CoreTime(c))
		}
	}
}

// TestMaxTime checks the partition finish-time helper.
func TestMaxTime(t *testing.T) {
	m := NewMachine(arch.MemPool())
	if err := m.Run(Job{
		Name:  "w",
		Cores: []int{2, 3},
		Phases: []Phase{{Name: "w", Work: func(p *Proc) {
			p.Tick(20 + p.Lane)
		}}},
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := m.MaxTime([]int{2, 3}), m.Cycles(); got != want {
		t.Errorf("MaxTime over the active partition = %d, want the machine max %d", got, want)
	}
	if got := m.MaxTime([]int{10, 11}); got != 0 {
		t.Errorf("MaxTime over idle cores = %d, want 0", got)
	}
	if got, want := m.MaxTime(nil), m.Cycles(); got != want {
		t.Errorf("MaxTime(nil) = %d, want %d", got, want)
	}
}

// busyCycles counts the booked bank-cycles in [lo, hi) across every
// bank of m.
func busyCycles(m *Machine, lo, hi int64) int {
	n := 0
	for b := 0; b < m.Cfg.NumBanks(); b++ {
		for t := lo; t < hi; t++ {
			if m.Mem.Res.Busy(b, t) {
				n++
			}
		}
	}
	return n
}

// TestTrimReservationsCoreSet checks the retire cutoff follows the given
// core set: idle cores parked at cycle 0 pin every page under a
// cluster-wide trim, while a trim over the cores that actually ran
// retires the pages they have all moved past.
func TestTrimReservationsCoreSet(t *testing.T) {
	m := NewMachine(arch.TeraPool())
	cores := make([]int, 256)
	for i := range cores {
		cores[i] = i
	}
	if err := m.Run(Job{Name: "early", Cores: cores, Phases: []Phase{{Name: "p", Work: func(p *Proc) {
		p.Store(arch.Addr(p.Lane), W{})
		p.Tick(30000)
	}}}}); err != nil {
		t.Fatal(err)
	}
	early := busyCycles(m, 0, 64)
	if early == 0 {
		t.Fatal("the early stores booked no bank cycles")
	}
	m.TrimReservations(nil)
	if got := busyCycles(m, 0, 64); got != early {
		t.Fatalf("cluster-wide trim with idle cores at cycle 0 retired early pages: %d of %d bookings left", got, early)
	}
	m.TrimReservations(cores)
	if got := busyCycles(m, 0, 64); got != 0 {
		t.Fatalf("trim over the running cores left %d early bookings live", got)
	}
	m.TrimReservations([]int{}) // an empty set retires nothing and must not panic
}

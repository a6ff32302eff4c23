package engine

import (
	"strings"
	"testing"

	"repro/internal/arch"
)

func tracedRun(t *testing.T, rotate bool) *Machine {
	t.Helper()
	m := NewMachine(arch.MemPool())
	m.Tracer = &Tracer{}
	m.RotatePriority = rotate
	err := m.Run(Job{
		Name:  "demo",
		Cores: []int{0, 1, 2, 3},
		Phases: []Phase{
			{Name: "a", Work: func(p *Proc) { p.Tick(10 + 5*p.Lane) }},
			{Name: "b", Work: func(p *Proc) { p.Tick(20) }},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTracerRecordsPhases(t *testing.T) {
	m := tracedRun(t, false)
	tr := m.Tracer
	if got, want := len(tr.Events), 8; got != want { // 4 cores x 2 phases
		t.Fatalf("events = %d, want %d", got, want)
	}
	for _, ev := range tr.Events {
		if ev.Start > ev.Arrive || ev.Arrive > ev.Release {
			t.Fatalf("unordered event %+v", ev)
		}
		if ev.Job != "demo" {
			t.Fatalf("job = %q", ev.Job)
		}
	}
	if names := tr.JobNames(); len(names) != 1 || names[0] != "demo" {
		t.Errorf("JobNames = %v", names)
	}
	lo, hi := tr.Span()
	if lo >= hi {
		t.Errorf("span [%d, %d]", lo, hi)
	}
}

func TestTracerTimelineRenders(t *testing.T) {
	m := tracedRun(t, false)
	var sb strings.Builder
	if err := m.Tracer.Timeline(&sb, []int{0, 1, 2, 3}, 60); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "core    0") || !strings.Contains(out, "#") {
		t.Errorf("timeline missing rows:\n%s", out)
	}
	// The fastest core of phase a (lane 0) must show barrier wait dots.
	if !strings.Contains(out, ".") {
		t.Errorf("timeline shows no barrier wait:\n%s", out)
	}
}

func TestTracerPhaseSummary(t *testing.T) {
	m := tracedRun(t, false)
	sum := m.Tracer.PhaseSummary()
	if !strings.Contains(sum, "demo/a") || !strings.Contains(sum, "demo/b") {
		t.Errorf("summary missing phases:\n%s", sum)
	}
	if !strings.Contains(sum, "avg work") {
		t.Errorf("summary missing header:\n%s", sum)
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.record(TraceEvent{}) // must not panic
	m := NewMachine(arch.MemPool())
	if err := m.Run(Job{Name: "x", Cores: []int{0}, Phases: []Phase{{Name: "p", Work: func(p *Proc) {}}}}); err != nil {
		t.Fatal(err)
	}
}

func TestTracerEmptyTimeline(t *testing.T) {
	tr := &Tracer{}
	var sb strings.Builder
	if err := tr.Timeline(&sb, []int{0}, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no events") {
		t.Error("empty tracer did not say so")
	}
}

// TestRotatePriorityPreservesResults: rotating the replay order changes
// who wins bank-conflict ties but cannot change any computed value.
func TestRotatePriorityPreservesResults(t *testing.T) {
	run := func(rotate bool) []uint32 {
		m := NewMachine(arch.MemPool())
		m.RotatePriority = rotate
		base, err := m.Mem.AllocSeq(64)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			m.Mem.Write(base+arch.Addr(i), uint32(i*3+1))
		}
		out, err := m.Mem.AllocSeq(16)
		if err != nil {
			t.Fatal(err)
		}
		err = m.Run(Job{Name: "t", Cores: []int{0, 1, 2, 3}, Phases: []Phase{{
			Name: "p",
			Work: func(p *Proc) {
				acc := A{}
				for i := 0; i < 16; i++ {
					w := p.Load(base + arch.Addr(p.Lane*16+i))
					acc = p.Mac(acc, w, w)
				}
				p.Store(out+arch.Addr(p.Lane), p.Narrow(acc, 4))
			},
		}}})
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]uint32, 4)
		for i := range vals {
			vals[i] = m.Mem.Read(out + arch.Addr(i))
		}
		return vals
	}
	fixed := run(false)
	rotated := run(true)
	for i := range fixed {
		if fixed[i] != rotated[i] {
			t.Fatalf("arbitration changed a computed value at %d", i)
		}
	}
}

// TestTracerRecordsBarrierEvents: an explicit Barrier on a traced
// machine records one "barrier/sync" event per participating core, with
// a shared release and the climb/wake cost breakdown.
func TestTracerRecordsBarrierEvents(t *testing.T) {
	m := NewMachine(arch.MemPool())
	m.Tracer = &Tracer{}
	cores := []int{0, 1, 2, 3}
	err := m.Run(Job{Name: "j", Cores: cores, Phases: []Phase{
		{Name: "p", Work: func(p *Proc) { p.Tick(10 + 5*p.Lane) }},
	}})
	if err != nil {
		t.Fatal(err)
	}
	before := len(m.Tracer.Events)
	m.Barrier(cores)
	evs := m.Tracer.Events[before:]
	if len(evs) != len(cores) {
		t.Fatalf("barrier recorded %d events, want %d", len(evs), len(cores))
	}
	release := evs[0].Release
	for i, ev := range evs {
		if ev.Job != "barrier" || ev.Phase != "sync" {
			t.Fatalf("event %d = %s/%s", i, ev.Job, ev.Phase)
		}
		if ev.Core != cores[i] {
			t.Fatalf("event %d core = %d, want %d (ascending order)", i, ev.Core, cores[i])
		}
		if ev.Release != release {
			t.Fatalf("core %d released at %d, others at %d", ev.Core, ev.Release, release)
		}
		if ev.Arrive > ev.Release {
			t.Fatalf("core %d arrives after release: %+v", ev.Core, ev)
		}
		if ev.Climb <= 0 || ev.Wake <= 0 {
			t.Fatalf("core %d missing climb/wake breakdown: %+v", ev.Core, ev)
		}
		if ev.Release != m.CoreTime(ev.Core) {
			t.Fatalf("core %d time %d != release %d", ev.Core, m.CoreTime(ev.Core), ev.Release)
		}
	}
}

// TestTracerRecordsHandshake: a NotBefore hold on a traced machine
// records one "handshake" event per core that actually stalled.
func TestTracerRecordsHandshake(t *testing.T) {
	m := NewMachine(arch.MemPool())
	m.Tracer = &Tracer{}
	job := Job{Name: "j", Cores: []int{0, 1}, NotBefore: 500, Phases: []Phase{
		{Name: "p", Work: func(p *Proc) { p.Tick(1) }},
	}}
	if err := m.Run(job); err != nil {
		t.Fatal(err)
	}
	var hs []TraceEvent
	for _, ev := range m.Tracer.Events {
		if ev.Phase == "handshake" {
			hs = append(hs, ev)
		}
	}
	if len(hs) != 2 {
		t.Fatalf("recorded %d handshake events, want 2", len(hs))
	}
	for _, ev := range hs {
		if ev.Release != 500 || ev.Start != ev.Arrive {
			t.Fatalf("handshake %+v, want release 500 and Start == Arrive", ev)
		}
	}
	// Cores already past the hold stall zero cycles and record nothing.
	m2 := NewMachine(arch.MemPool())
	m2.Tracer = &Tracer{}
	job.NotBefore = 0
	if err := m2.Run(job); err != nil {
		t.Fatal(err)
	}
	for _, ev := range m2.Tracer.Events {
		if ev.Phase == "handshake" {
			t.Fatalf("unheld job recorded handshake %+v", ev)
		}
	}
}

// TestTracerPhaseEventsCarryCosts: multi-core phase releases expose the
// climb/wake split so span exporters can attribute release overhead.
func TestTracerPhaseEventsCarryCosts(t *testing.T) {
	m := tracedRun(t, false)
	for _, ev := range m.Tracer.Events {
		if ev.Climb <= 0 || ev.Wake <= 0 {
			t.Fatalf("phase event missing costs: %+v", ev)
		}
		if ev.Release-ev.Arrive < ev.Climb+ev.Wake {
			t.Fatalf("release interval smaller than its cost parts: %+v", ev)
		}
	}
}

// TestUntracedRunAllocsNothing pins the nil-tracer contract: the
// recording hooks must stay behind nil guards so an untraced Run costs
// zero allocations in steady state.
func TestUntracedRunAllocsNothing(t *testing.T) {
	m := NewMachine(arch.MemPool())
	cores := []int{0, 1, 2, 3}
	job := Job{Name: "j", Cores: cores, NotBefore: 1, Phases: []Phase{
		{Name: "p", Kernel: "t/k", Work: func(p *Proc) { p.Tick(8) }},
	}}
	if err := m.Run(job); err != nil { // warm scratch buffers and icache sets
		t.Fatal(err)
	}
	m.ClusterBarrier()
	avg := testing.AllocsPerRun(50, func() {
		if err := m.Run(job); err != nil {
			t.Fatal(err)
		}
		m.ClusterBarrier()
	})
	if avg != 0 {
		t.Fatalf("untraced Run allocates %.1f objects/op, want 0", avg)
	}
}

// TestResetAndTrimAllocsNothing extends the zero-alloc contract to the
// machine-reuse path: once warmed, a full Run -> TrimReservations ->
// Reset cycle — including memory-touching work, barrier retirement and
// the epoch-based reservation/icache reset — performs no allocation, so
// campaign loops can reuse one Machine indefinitely. The TeraPool case
// has the shape of a pipelined chain slot: per beat, a Remark snapshot,
// two partitions running concurrently behind a NotBefore handshake, a
// report over each partition and a retire over both, so the 4096-bank
// reservation rows and the beat snapshots must be recycled too.
func TestResetAndTrimAllocsNothing(t *testing.T) {
	t.Run("mempool", func(t *testing.T) {
		m := NewMachine(arch.MemPool())
		cores := []int{0, 1, 2, 3, 4, 5, 6, 7}
		work := func(p *Proc) {
			base := arch.Addr(p.Lane * 64)
			var buf [16]W
			p.LoadSpan(base, buf[:])
			p.Tick(9000) // push clocks past the retire window so Trim fires
			p.StoreVec(base, 2, buf[:8])
		}
		job := Job{Name: "j", Cores: cores, Phases: []Phase{
			{Name: "p", Kernel: "t/k", Work: work},
		}}
		cycle := func() {
			if err := m.Run(job); err != nil {
				t.Fatal(err)
			}
			m.TrimReservations(nil)
			m.Reset()
		}
		cycle() // warm scratch buffers, icache sets and reservation rows
		if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
			t.Fatalf("Run+Trim+Reset allocates %.1f objects/op, want 0", avg)
		}
	})
	t.Run("terapool-pipelined", func(t *testing.T) {
		m := NewMachine(arch.TeraPool())
		front, back := make([]int, 512), make([]int, 256)
		for i := range front {
			front[i] = i
		}
		for i := range back {
			back[i] = 512 + i
		}
		live := append(append([]int(nil), front...), back...)
		words := arch.Addr(m.Cfg.NumBanks())
		stream := func(p *Proc) {
			// Sweep every bank in lane order, the way the kernels stream
			// over interleaved data, then run past the retire window.
			var buf [8]W
			for a := arch.Addr(p.Lane); a < 4*words; a += 8 * 512 {
				p.LoadSpan(a, buf[:])
			}
			p.Tick(3000)
		}
		jobs := []Job{
			{Name: "front", Cores: front, Phases: []Phase{{Name: "p", Kernel: "t/f", Work: stream}}},
			{Name: "back", Cores: back, Phases: []Phase{{Name: "p", Kernel: "t/b", Work: stream}}},
		}
		slot := func() {
			m.Reset()
			var fin int64
			for beat := 0; beat < 6; beat++ {
				mark := m.Remark()
				jobs[1].NotBefore = fin // the back partition consumes the front's output
				if err := m.Run(jobs...); err != nil {
					t.Fatal(err)
				}
				m.TrimReservations(live)
				if m.ReportSince(*mark, "front", front).Wall <= 0 {
					t.Fatal("empty front window")
				}
				fin = m.MaxTime(front)
			}
		}
		slot() // the first slot grows the ring and allocates its rows
		if avg := testing.AllocsPerRun(5, slot); avg != 0 {
			t.Fatalf("a second pipelined TeraPool slot allocates %.1f objects/op, want 0", avg)
		}
	})
}

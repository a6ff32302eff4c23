package tcdm

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/arch"
)

func TestReservationFirstComeFirstServed(t *testing.T) {
	r := NewReservation(4)
	if got := r.Acquire(0, 10); got != 10 {
		t.Fatalf("first acquire = %d, want 10", got)
	}
	if got := r.Acquire(0, 10); got != 11 {
		t.Fatalf("conflicting acquire = %d, want 11", got)
	}
	if got := r.Acquire(0, 10); got != 12 {
		t.Fatalf("third acquire = %d, want 12", got)
	}
	// A different bank is unaffected.
	if got := r.Acquire(1, 10); got != 10 {
		t.Fatalf("other bank acquire = %d, want 10", got)
	}
	if r.ConflictCycles() != 3 { // 1 + 2 cycles of delay
		t.Errorf("ConflictCycles = %d, want 3", r.ConflictCycles())
	}
	if r.Accesses() != 4 {
		t.Errorf("Accesses = %d, want 4", r.Accesses())
	}
}

func TestReservationCrossesPageBoundary(t *testing.T) {
	r := NewReservation(1)
	// Fill the tail of page 0 and verify the next slot lands in page 1.
	last := int64(1<<pageBits - 1)
	for i := int64(0); i < 4; i++ {
		r.Acquire(0, last-3+i)
	}
	if got := r.Acquire(0, last); got != 1<<pageBits {
		t.Fatalf("boundary acquire = %d, want %d", got, int64(1)<<pageBits)
	}
}

func TestReservationMonotone(t *testing.T) {
	// Property: Acquire never returns a slot before the requested time,
	// and never double-books a (bank, cycle) pair.
	r := NewReservation(8)
	booked := make(map[[2]int64]bool)
	rng := rand.New(rand.NewPCG(42, 43))
	for i := 0; i < 20000; i++ {
		bank := rng.IntN(8)
		at := int64(rng.IntN(5000))
		slot := r.Acquire(bank, at)
		if slot < at {
			t.Fatalf("slot %d before request %d", slot, at)
		}
		key := [2]int64{int64(bank), slot}
		if booked[key] {
			t.Fatalf("double booking of bank %d cycle %d", bank, slot)
		}
		booked[key] = true
	}
}

func TestReservationBusyAndRetire(t *testing.T) {
	r := NewReservation(2)
	slot := r.Acquire(1, 100)
	if !r.Busy(1, slot) {
		t.Error("acquired slot not busy")
	}
	if r.Busy(1, slot+1) {
		t.Error("unacquired slot busy")
	}
	r.Retire(1 << (pageBits + 1)) // drop page 0
	if r.Busy(1, slot) {
		t.Error("retired slot still busy")
	}
	// After retirement, the cycle can be booked again.
	if got := r.Acquire(1, 100); got != 100 {
		t.Errorf("post-retire acquire = %d, want 100", got)
	}
}

// TestConflictCyclesCountFromRequest pins the delay accounting of a
// contended scan that runs off the end of a page: the delay is the
// distance from the requested cycle, not from the page start the scan
// resumed at.
func TestConflictCyclesCountFromRequest(t *testing.T) {
	r := NewReservation(1)
	r.Acquire(0, 4094)
	r.Acquire(0, 4095)
	if got := r.Acquire(0, 4094); got != 4096 {
		t.Fatalf("contended acquire = %d, want 4096", got)
	}
	if got := r.ConflictCycles(); got != 2 {
		t.Errorf("ConflictCycles = %d, want 2 (4094 -> 4096)", got)
	}
}

// TestReservationRingGrowthKeepsLiveRows books live rows that collide
// in the ring at its first two sizes, so growth must double more than
// once before the incoming row has a slot of its own.
func TestReservationRingGrowthKeepsLiveRows(t *testing.T) {
	r := NewReservation(70)
	cycles := []int64{0, 2 * ringRows << rowBits, 4 * ringRows << rowBits}
	for _, c := range cycles {
		for _, bank := range []int{3, 69} {
			if got := r.Acquire(bank, c); got != c {
				t.Fatalf("Acquire(%d, %d) = %d on an empty bank", bank, c, got)
			}
		}
	}
	for _, c := range cycles {
		for _, bank := range []int{3, 69} {
			if !r.Busy(bank, c) {
				t.Errorf("bank %d cycle %d lost its booking across ring growth", bank, c)
			}
		}
	}
	if len(r.tags) < 8*ringRows {
		t.Errorf("ring has %d slots, want >= %d to separate the rows", len(r.tags), 8*ringRows)
	}
}

// refTable is the reference model of Reservation: every booking as a
// map entry labelled with the retire window it was made in, under the
// same epoch rules — Reset forgets everything, and a booking in a page
// below the retire cutoff counts only if it was made since the last
// Retire.
type refTable struct {
	booked    map[int]map[int64]uint32 // bank -> cycle -> seq at booking
	seq       uint32
	cutoff    int64 // first live page
	conflicts int64
	accesses  int64
}

func newRefTable() *refTable { return &refTable{booked: map[int]map[int64]uint32{}} }

func (m *refTable) busy(bank int, t int64) bool {
	seq, ok := m.booked[bank][t]
	return ok && (t>>pageBits >= m.cutoff || seq == m.seq)
}

func (m *refTable) acquire(bank int, t int64) int64 {
	if t < 0 {
		t = 0
	}
	slot := t
	for m.busy(bank, slot) {
		slot++
	}
	if m.booked[bank] == nil {
		m.booked[bank] = map[int64]uint32{}
	}
	m.booked[bank][slot] = m.seq
	m.conflicts += slot - t
	m.accesses++
	return slot
}

func (m *refTable) retire(t int64) {
	m.seq++
	m.cutoff = max(m.cutoff, t>>pageBits)
}

func (m *refTable) reset() { *m = *newRefTable() }

// TestReservationMatchesReference drives the row ring and the reference
// model through the same seeded random sequences of Acquire, Retire
// (non-decreasing cutoffs) and Reset, and requires them to agree at
// every step on the returned cycle, Busy, Accesses and ConflictCycles.
// Requests cluster around a moving front — so scans run across row and
// page boundaries — plus some behind the retire cutoff, and the front
// outruns retirement far enough to force ring growth and wrap. The
// banks straddle 64-bank chunk edges and end in a partial chunk.
func TestReservationMatchesReference(t *testing.T) {
	banks := []int{0, 1, 63, 64, 129}
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 7))
		r, m := NewReservation(130), newRefTable()
		var front, lastRetire int64
		grew, wrapped := false, false
		var crossRow, crossPage, belowCutoff int
		for step := 0; step < 30000; step++ {
			switch op := rng.IntN(1000); {
			case op < 1:
				r.Reset()
				m.reset()
				front, lastRetire = 0, 0
			case op < 20:
				// Retire somewhere between the last cutoff and the front
				// (cutoffs never decrease within an epoch).
				cut := lastRetire + rng.Int64N(front-lastRetire+1)
				r.Retire(cut)
				m.retire(cut)
				lastRetire = cut
			default:
				bank := banks[rng.IntN(len(banks))]
				var at int64
				switch k := rng.IntN(10); {
				case k < 6: // a hot spot just behind the front
					at = front - rng.Int64N(70)
				case k < 8: // right at a row or page boundary
					b := int64(1) << rowBits
					if k == 7 {
						b = 1 << pageBits
					}
					at = (front/b)*b - rng.Int64N(3)
				default: // a few pages back, often below the cutoff
					at = front - rng.Int64N(4<<pageBits)
				}
				got, want := r.Acquire(bank, at), m.acquire(bank, at)
				if got != want {
					t.Fatalf("seed %d step %d: Acquire(%d, %d) = %d, want %d", seed, step, bank, at, got, want)
				}
				if at >= 0 && got>>rowBits != at>>rowBits {
					crossRow++
				}
				if at >= 0 && got>>pageBits != at>>pageBits {
					crossPage++
				}
				if got>>pageBits < m.cutoff {
					belowCutoff++
				}
				// The front advances in bursts, sometimes by more than the
				// whole initial ring, so rows wrap around the ring.
				front += rng.Int64N(4)
				if rng.IntN(500) == 0 {
					front += rng.Int64N(3 * ringRows << rowBits)
				}
			}
			if r.Accesses() != m.accesses || r.ConflictCycles() != m.conflicts {
				t.Fatalf("seed %d step %d: accesses/conflicts %d/%d, want %d/%d",
					seed, step, r.Accesses(), r.ConflictCycles(), m.accesses, m.conflicts)
			}
			for k := 0; k < 4; k++ {
				bank, at := banks[rng.IntN(len(banks))], front-rng.Int64N(200)
				if got, want := r.Busy(bank, at), m.busy(bank, at); got != want {
					t.Fatalf("seed %d step %d: Busy(%d, %d) = %v, want %v", seed, step, bank, at, got, want)
				}
			}
			grew = grew || len(r.tags) > ringRows
			wrapped = wrapped || front>>rowBits >= 2*int64(len(r.tags))
		}
		if !grew {
			t.Errorf("seed %d: the ring never grew", seed)
		}
		if !wrapped {
			t.Errorf("seed %d: rows never wrapped around the ring", seed)
		}
		if crossRow == 0 || crossPage == 0 || belowCutoff == 0 {
			t.Errorf("seed %d: scans across rows %d, across pages %d, bookings below the cutoff %d; want all > 0",
				seed, crossRow, crossPage, belowCutoff)
		}
		t.Logf("seed %d: ring %d rows, scans across rows %d, across pages %d, bookings below the cutoff %d",
			seed, len(r.tags), crossRow, crossPage, belowCutoff)
	}
}

func TestMemReadWrite(t *testing.T) {
	m := NewMem(arch.MemPool())
	f := func(raw uint32, v uint32) bool {
		a := arch.Addr(raw % uint32(m.Cfg.MemWords()))
		m.Write(a, v)
		return m.Read(a) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestAllocSeqDisjoint(t *testing.T) {
	m := NewMem(arch.MemPool())
	a, err := m.AllocSeq(1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.AllocSeq(500)
	if err != nil {
		t.Fatal(err)
	}
	if b < a+1000 {
		t.Errorf("allocations overlap: a=%d (+1000), b=%d", a, b)
	}
}

func TestAllocSeqOOM(t *testing.T) {
	m := NewMem(arch.MemPool())
	if _, err := m.AllocSeq(m.Cfg.MemWords() + 1); err == nil {
		t.Error("AllocSeq accepted more than the whole memory")
	}
	if _, err := m.AllocSeq(m.Cfg.MemWords()); err != nil {
		t.Errorf("AllocSeq rejected exactly-full allocation: %v", err)
	}
	if _, err := m.AllocSeq(1); err == nil {
		t.Error("AllocSeq accepted allocation past the end")
	}
}

func TestAllocTileLocalPlacement(t *testing.T) {
	m := NewMem(arch.TeraPool())
	tile := 17
	blk, err := m.AllocTileLocal(tile, 4)
	if err != nil {
		t.Fatal(err)
	}
	if blk.Words() != 4*m.Cfg.BanksPerTile() {
		t.Errorf("block words = %d", blk.Words())
	}
	seen := make(map[arch.Addr]bool)
	for i := 0; i < blk.Words(); i++ {
		a := blk.WordAddr(i)
		if seen[a] {
			t.Fatalf("WordAddr duplicates address %d", a)
		}
		seen[a] = true
		if m.Cfg.TileOf(a) != tile {
			t.Fatalf("word %d lands in tile %d, want %d", i, m.Cfg.TileOf(a), tile)
		}
	}
	// Consecutive indices hit distinct banks.
	b0 := m.Cfg.BankOf(blk.WordAddr(0))
	b1 := m.Cfg.BankOf(blk.WordAddr(1))
	if b0 == b1 {
		t.Error("consecutive block words share a bank")
	}
}

func TestAllocTileLocalStacks(t *testing.T) {
	m := NewMem(arch.MemPool())
	blk1, err := m.AllocTileLocal(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	blk2, err := m.AllocTileLocal(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if blk2.Row0+blk2.Rows != blk1.Row0 {
		t.Errorf("blocks not stacked: blk1 rows [%d,%d), blk2 rows [%d,%d)", blk1.Row0, blk1.Row0+blk1.Rows, blk2.Row0, blk2.Row0+blk2.Rows)
	}
}

func TestArenaCollisionDetected(t *testing.T) {
	m := NewMem(arch.MemPool())
	// Fill almost everything sequentially, then a tile-local alloc that
	// cannot fit must fail.
	if _, err := m.AllocSeq(m.Cfg.MemWords() - m.Cfg.NumBanks()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AllocTileLocal(0, 2); err == nil {
		t.Error("tile-local allocation into the sequential arena not rejected")
	}
	if _, err := m.AllocTileLocal(0, 1); err != nil {
		t.Errorf("tile-local allocation in the last free row rejected: %v", err)
	}
	// And the mirror image: tile-local first, sequential collision after.
	m.Reset()
	if _, err := m.AllocTileLocal(5, m.Cfg.BankWords); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AllocSeq(1); err == nil {
		t.Error("sequential allocation into a full tile-local arena not rejected")
	}
}

func TestResetRestoresCapacity(t *testing.T) {
	m := NewMem(arch.MemPool())
	total := m.FreeWords()
	if _, err := m.AllocSeq(1024); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AllocTileLocal(0, 8); err != nil {
		t.Fatal(err)
	}
	if m.FreeWords() >= total {
		t.Error("FreeWords did not shrink after allocations")
	}
	m.Reset()
	if m.FreeWords() != total {
		t.Errorf("FreeWords after Reset = %d, want %d", m.FreeWords(), total)
	}
}

func TestAllocRejectsNegative(t *testing.T) {
	m := NewMem(arch.MemPool())
	if _, err := m.AllocSeq(-1); err == nil {
		t.Error("AllocSeq(-1) accepted")
	}
	if _, err := m.AllocTileLocal(0, -1); err == nil {
		t.Error("AllocTileLocal(-1) accepted")
	}
	if _, err := m.AllocTileLocal(-1, 1); err == nil {
		t.Error("AllocTileLocal on negative tile accepted")
	}
}

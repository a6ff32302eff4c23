// Package tcdm models the cluster's tightly-coupled data memory: the
// word-addressed banked storage, arena allocators for the two layout
// families the kernels use (sequential-interleaved and tile-local), and
// the cycle-reservation table that resolves bank contention.
//
// Each bank serves one access per cycle. The engine replays the cores in
// core-ID order, so reservation implements a fixed-priority arbiter:
// core i never waits for core j > i. Under the paper's conflict-free data
// placements this coincides with MemPool's round-robin arbiter: a bank
// that only one core addresses per cycle serves it at once under
// either policy.
//
// The table is time-major. A row covers 64 cycles and holds one uint64
// busy bitmap per bank, so the cores' streams over interleaved banks at
// neighbouring cycles land in one row and share its cache lines (eight
// banks per line), instead of each touching its own per-bank page.
package tcdm

import "math/bits"

// rowBits is log2 of the cycles covered by one reservation row: one
// uint64 word per bank.
const rowBits = 6

// pageBits is log2 of the retirement granularity: Retire drops whole
// 4096-cycle pages, i.e. runs of 1<<(pageBits-rowBits) rows.
const pageBits = 12

// ringRows is the initial row-ring size; it covers ringRows<<rowBits
// unretired cycles before the first growth.
const ringRows = 256

// chunkBits is log2 of the banks in one chunk, the unit in which row
// storage is allocated: 64 banks, 512 B.
const chunkBits = 6

// chunk is one row's bitmap words for 1<<chunkBits consecutive banks.
type chunk [1 << chunkBits]uint64

// rowTag labels one ring slot: the row index it holds plus the epoch
// labels deciding whether that content is still meaningful. A slot
// whose labels are stale is storage waiting to be recycled, not state —
// Reset and Retire never touch it.
type rowTag struct {
	row int64 // row index (cycle >> rowBits) the slot holds
	gen uint32
	seq uint32
}

// Reservation resolves bank contention for a whole cluster.
//
// Row r lives in ring slot r & mask. The tags are a few KB, so the
// lookup stays in L1. A slot's row is stored as chunks of 64 banks,
// each allocated the first time one of its banks is booked, so a row
// costs memory only where it is used (a single core's long serial pass
// touches a handful of chunks per row). A slot claimed again clears its
// chunks in place. The ring doubles on the rare collision between two
// live rows, moving only the chunk pointers.
//
// The table is epoch-based: Reset bumps a generation counter (gen) that
// invalidates every row in O(1), and Retire bumps a retire sequence
// (seq) plus a row-index cutoff that invalidates old rows in O(1).
// Steady-state operation — including Machine.Reset between runs and
// barrier retirement inside runs — performs no allocation at all.
type Reservation struct {
	nChunks int // chunks per row
	mask    int64
	tags    []rowTag
	// chunks holds slot i's row at [i*nChunks, (i+1)*nChunks); a nil
	// chunk reads as empty.
	chunks []*chunk

	// gen labels the current Reset epoch: rows claimed under an older
	// gen read as empty. It starts at 1, so a never-claimed slot (zero
	// tag) reads as empty too.
	gen uint32
	// seq labels the current Retire window and cutoff is the first live
	// row index, always a page boundary: a row below the cutoff claimed
	// under an older seq reads as empty. Retire cutoffs must be
	// non-decreasing within one epoch, which the engine guarantees
	// (per-core clocks only move forward).
	seq    uint32
	cutoff int64

	conflicts int64 // total cycles of delay handed out
	accesses  int64
}

// NewReservation creates tables for nBanks banks.
func NewReservation(nBanks int) *Reservation {
	n := (nBanks + 1<<chunkBits - 1) >> chunkBits
	return &Reservation{
		nChunks: n,
		mask:    ringRows - 1,
		tags:    make([]rowTag, ringRows),
		chunks:  make([]*chunk, ringRows*n),
		gen:     1,
	}
}

// Reset invalidates every reservation and zeroes the contention
// counters in O(1), returning the table to its just-constructed state
// without touching any row. Machine reuse depends on this being cheap:
// row content is lazily cleared only when its slot is claimed again.
func (r *Reservation) Reset() {
	r.gen++
	if r.gen == 0 { // wrapped: a stale tag could carry the new gen
		clear(r.tags)
		r.gen = 1
	}
	r.seq = 0
	r.cutoff = 0
	r.conflicts = 0
	r.accesses = 0
}

// live reports whether slot i's content is meaningful under the
// current epoch labels.
func (r *Reservation) live(i int64) bool {
	t := &r.tags[i]
	return t.gen == r.gen && (t.row >= r.cutoff || t.seq == r.seq)
}

// slot returns the chunk pointers of ring slot i.
func (r *Reservation) slot(i int64) []*chunk {
	n := int64(r.nChunks)
	return r.chunks[i*n : i*n+n]
}

// claim clears ring slot storage for row and returns the slot,
// recycling it in place (growing the ring only when the slot holds a
// different row that is still live).
func (r *Reservation) claim(row int64) int64 {
	i := row & r.mask
	if r.live(i) && r.tags[i].row != row {
		r.grow(row)
		i = row & r.mask
	}
	for _, c := range r.slot(i) {
		if c != nil {
			*c = chunk{}
		}
	}
	r.tags[i] = rowTag{row: row, gen: r.gen, seq: r.seq}
	return i
}

// grow doubles the ring until every live row and the incoming one land
// in distinct slots. Live rows move with their chunks; the chunks of
// stale rows fill slots left empty, so growth drops nothing it would
// have to allocate again.
func (r *Reservation) grow(row int64) {
	old, n := int64(len(r.tags)), int64(r.nChunks)
	for size := 2 * old; ; size *= 2 {
		mask := size - 1
		tags, taken := make([]rowTag, size), make([]bool, size)
		ok := true
		for i := int64(0); i < old && ok; i++ {
			if r.live(i) {
				j := r.tags[i].row & mask
				ok = !taken[j] && j != row&mask
				taken[j], tags[j] = true, r.tags[i]
			}
		}
		if !ok {
			continue
		}
		chunks := make([]*chunk, size*n)
		free := int64(0)
		for i := int64(0); i < old; i++ {
			k := r.tags[i].row & mask
			if !r.live(i) {
				for taken[free] {
					free++
				}
				k, taken[free] = free, true
			}
			copy(chunks[k*n:(k+1)*n], r.slot(i))
		}
		r.tags, r.chunks, r.mask = tags, chunks, mask
		return
	}
}

// Acquire books the first free service cycle >= t on the given bank and
// returns it. The difference between the returned cycle and t (clamped
// to 0) is the conflict delay suffered by this access.
func (r *Reservation) Acquire(bank int, t int64) int64 {
	if t < 0 {
		t = 0
	}
	r.accesses++
	req := t
	for {
		row := t >> rowBits
		i := row & r.mask
		if tg := &r.tags[i]; tg.row != row || tg.gen != r.gen || (row < r.cutoff && tg.seq != r.seq) {
			i = r.claim(row)
		}
		ci := int(i)*r.nChunks + bank>>chunkBits
		c := r.chunks[ci]
		if c == nil {
			c = new(chunk)
			r.chunks[ci] = c
		}
		w := &c[bank&(1<<chunkBits-1)]
		// Free cycles of this bank in the row at or after t. Uncontended,
		// the lowest one is t itself.
		off := uint(t & 63)
		free := ^*w >> off << off
		if free != 0 {
			pos := int64(bits.TrailingZeros64(free))
			*w |= 1 << pos
			slot := row<<rowBits | pos
			r.conflicts += slot - req
			return slot
		}
		// Row exhausted: continue at the start of the next one.
		t = (row + 1) << rowBits
	}
}

// Busy reports whether cycle t is already booked on bank (test helper).
func (r *Reservation) Busy(bank int, t int64) bool {
	row := t >> rowBits
	i := row & r.mask
	if r.tags[i].row != row || !r.live(i) {
		return false
	}
	c := r.slot(i)[bank>>chunkBits]
	return c != nil && c[bank&(1<<chunkBits-1)]>>uint(t&63)&1 != 0
}

// Retire drops all reservation pages that end strictly before cycle t.
// The engine calls it at cluster-wide barriers to bound memory use.
// Within one epoch its cutoffs must be non-decreasing; the engine
// derives them from the slowest core's clock, which only moves forward.
func (r *Reservation) Retire(t int64) {
	cutoff := t >> pageBits << (pageBits - rowBits) // rows of pages ending before t
	r.seq++
	if cutoff > r.cutoff {
		r.cutoff = cutoff
	}
}

// ConflictCycles returns the total delay (in bank-cycles) attributed to
// contention since the last Reset.
func (r *Reservation) ConflictCycles() int64 { return r.conflicts }

// Accesses returns the total number of bank accesses booked.
func (r *Reservation) Accesses() int64 { return r.accesses }

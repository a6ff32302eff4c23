package engine

import "repro/internal/arch"

// Bulk access operations.
//
// Kernel inner loops spend most of their simulated instructions on
// regularly-strided loads and stores. The methods below name a whole
// span of them in one call. Each is a plain loop over the scalar Load
// or Store, so a span's timing is the scalar sequence by construction:
// every word runs through the one memory issue path (Proc.issue) —
// issue cycle, fetch tax, bank level, reservation, LSU ring — in order,
// with nothing interleaved.
//
// The contract for kernels: a bulk op may replace a run of consecutive
// scalar Loads (or Stores) only when no other Proc instruction would
// have been interleaved between them — the words of a span issue
// back-to-back, exactly like the unrolled scalar sequence. See
// docs/ARCHITECTURE.md, "Engine performance model".

// LoadVec issues len(dst) loads from base, base+stride, base+2*stride,
// ... back to back, filling dst.
func (p *Proc) LoadVec(base arch.Addr, stride int, dst []W) {
	for i := range dst {
		dst[i] = p.Load(base + arch.Addr(i*stride))
	}
}

// LoadSpan issues len(dst) loads from consecutive addresses starting at
// base (a unit-stride LoadVec).
func (p *Proc) LoadSpan(base arch.Addr, dst []W) { p.LoadVec(base, 1, dst) }

// LoadGather issues one load per address in addrs, back to back,
// filling dst (which must be at least as long).
func (p *Proc) LoadGather(addrs []arch.Addr, dst []W) {
	for i, addr := range addrs {
		dst[i] = p.Load(addr)
	}
}

// Load2 issues two back-to-back loads (the common paired-operand case:
// both factors of a MAC fetched in consecutive cycles).
func (p *Proc) Load2(a0, a1 arch.Addr) (W, W) { return p.Load(a0), p.Load(a1) }

// StoreVec issues len(src) stores to base, base+stride, ... back to
// back; each word first waits for its operand, then issues.
func (p *Proc) StoreVec(base arch.Addr, stride int, src []W) {
	for i, w := range src {
		p.Store(base+arch.Addr(i*stride), w)
	}
}

// StoreSpan issues len(src) stores to consecutive addresses starting at
// base (a unit-stride StoreVec).
func (p *Proc) StoreSpan(base arch.Addr, src []W) { p.StoreVec(base, 1, src) }

// StoreScatter issues one store per address in addrs, back to back,
// draining src.
func (p *Proc) StoreScatter(addrs []arch.Addr, src []W) {
	for i, addr := range addrs {
		p.Store(addr, src[i])
	}
}

package engine

import (
	"sync"
	"testing"

	"repro/internal/arch"
)

// tinyConfig returns a small valid cluster so pool tests do not allocate
// multi-MiB arenas per machine.
func tinyConfig() *arch.Config {
	cfg := arch.MemPool()
	cfg.Groups = 1
	cfg.Name = "tiny"
	return cfg
}

func TestMachinesStats(t *testing.T) {
	cfg := tinyConfig()
	pool := NewMachines()

	m1 := pool.Get(cfg)
	m2 := pool.Get(cfg)
	if s := pool.Stats(); s.Gets != 2 || s.Builds != 2 || s.Reuses != 0 || s.InUse != 2 || s.Peak != 2 || s.Idle != 0 {
		t.Fatalf("after two builds: %+v", s)
	}
	pool.Put(m1)
	pool.Put(m2)
	if s := pool.Stats(); s.Puts != 2 || s.InUse != 0 || s.Idle != 2 {
		t.Fatalf("after two puts: %+v", s)
	}
	m3 := pool.Get(cfg)
	if s := pool.Stats(); s.Gets != 3 || s.Builds != 2 || s.Reuses != 1 || s.InUse != 1 || s.Peak != 2 || s.Idle != 1 {
		t.Fatalf("after reuse: %+v", s)
	}
	pool.Put(m3)
}

func TestShardedStatsAndIsolation(t *testing.T) {
	cfg := tinyConfig()
	s := NewSharded(3)
	if s.Shards() != 3 {
		t.Fatalf("Shards() = %d, want 3", s.Shards())
	}
	if s.Shard(0) == s.Shard(1) || s.Shard(1) == s.Shard(2) {
		t.Fatal("shards must be distinct pools")
	}
	if s.Shard(0) != s.Shard(3) || s.Shard(-1) != s.Shard(2) {
		t.Fatal("Shard must wrap modulo the shard count")
	}

	// A machine put back into shard 0 must not satisfy a Get on shard 1.
	s.Shard(0).Put(s.Shard(0).Get(cfg))
	m := s.Shard(1).Get(cfg)
	agg := s.Stats()
	if agg.Gets != 2 || agg.Builds != 2 || agg.Reuses != 0 {
		t.Fatalf("cross-shard reuse leaked: %+v", agg)
	}
	if agg.InUse != 1 || agg.Idle != 1 {
		t.Fatalf("aggregate occupancy: %+v", agg)
	}
	s.Shard(1).Put(m)
	if s.Size() != 2 {
		t.Fatalf("Size() = %d, want 2", s.Size())
	}
}

// TestShardedConcurrent hammers a sharded pool from many goroutines; its
// real assertion is the -race run in CI, plus conservation of the
// aggregate counters afterwards.
func TestShardedConcurrent(t *testing.T) {
	cfg := tinyConfig()
	const workers, rounds = 8, 16
	s := NewSharded(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pool := s.Shard(w)
			for i := 0; i < rounds; i++ {
				m := pool.Get(cfg)
				m.Mem.Write(0, uint32(w*rounds+i))
				pool.Put(m)
			}
		}(w)
	}
	wg.Wait()
	agg := s.Stats()
	if agg.Gets != workers*rounds || agg.Puts != workers*rounds || agg.InUse != 0 {
		t.Fatalf("counter conservation: %+v", agg)
	}
	if agg.Builds != workers || agg.Reuses != workers*(rounds-1) {
		t.Fatalf("each worker should build once and reuse after: %+v", agg)
	}
}

// TestForEach: every index runs exactly once with a worker id inside
// the resolved width, whatever the width; one worker runs inline in
// index order; an empty range runs nothing.
func TestForEach(t *testing.T) {
	for _, c := range []struct{ n, workers int }{{0, 4}, {1, 8}, {7, 1}, {100, 3}, {1000, 8}, {5, 0}} {
		w := Workers(c.workers, c.n)
		hits := make([]int, c.n)
		var mu sync.Mutex
		var order []int
		ForEach(c.n, c.workers, func(worker, i int) {
			if worker < 0 || worker >= w {
				t.Errorf("n=%d workers=%d: worker id %d outside [0,%d)", c.n, c.workers, worker, w)
			}
			mu.Lock()
			hits[i]++
			order = append(order, i)
			mu.Unlock()
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d workers=%d: index %d ran %d times", c.n, c.workers, i, h)
			}
		}
		if w == 1 {
			for i, got := range order {
				if got != i {
					t.Fatalf("n=%d: inline run out of order at %d: %v", c.n, i, order)
				}
			}
		}
	}
	if w := Workers(16, 3); w != 3 {
		t.Fatalf("Workers(16, 3) = %d, want 3", w)
	}
	if w := Workers(4, 0); w != 1 {
		t.Fatalf("Workers(4, 0) = %d, want 1", w)
	}
}

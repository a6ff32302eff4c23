package timecache

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/report"
)

func rec(cycles int64) report.SlotRecord {
	return report.SlotRecord{Kind: "chain", Cluster: "MemPool", Cores: 256, UEs: 4, TotalCycles: cycles}
}

func TestLookupAddStats(t *testing.T) {
	c := New(8)
	if _, ok := c.Lookup("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Add("a", rec(100))
	got, ok := c.Lookup("a")
	if !ok || got.TotalCycles != 100 {
		t.Fatalf("Lookup(a) = %+v, %v; want cycles 100, true", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Stores != 1 || st.Entries != 1 || st.Capacity != 8 {
		t.Fatalf("stats = %+v", st)
	}
	if hr := st.HitRate(); hr != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", hr)
	}
	// Re-adding refreshes the record in place.
	c.Add("a", rec(200))
	if got, _ := c.Lookup("a"); got.TotalCycles != 200 {
		t.Fatalf("after re-add, cycles = %d, want 200", got.TotalCycles)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	c.Add("a", rec(1))
	c.Add("b", rec(2))
	// Touch a so b becomes the LRU victim.
	c.Lookup("a")
	c.Add("c", rec(3))
	if _, ok := c.Lookup("b"); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	if _, ok := c.Lookup("a"); !ok {
		t.Fatal("a was touched and must survive")
	}
	if _, ok := c.Lookup("c"); !ok {
		t.Fatal("c was just added and must survive")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction, 2 entries", st)
	}
}

func TestDefaultCapacity(t *testing.T) {
	c := New(0)
	if got := c.Stats().Capacity; got != DefaultCapacity {
		t.Fatalf("capacity = %d, want %d", got, DefaultCapacity)
	}
}

func TestPersistRoundTrip(t *testing.T) {
	c := New(8)
	c.Add("k/b", rec(2))
	c.Add("k/a", rec(1))
	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	// Deterministic bytes: sorted by key regardless of insertion order.
	c2 := New(8)
	c2.Add("k/a", rec(1))
	c2.Add("k/b", rec(2))
	var buf2 bytes.Buffer
	if err := c2.WriteJSONL(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("WriteJSONL bytes depend on insertion order")
	}

	loaded := New(8)
	added, rejected, err := loaded.ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil || added != 2 || rejected != 0 {
		t.Fatalf("ReadJSONL = %d, %d, %v; want 2, 0, nil", added, rejected, err)
	}
	for key, want := range map[string]int64{"k/a": 1, "k/b": 2} {
		got, ok := loaded.Lookup(key)
		if !ok || got.TotalCycles != want {
			t.Fatalf("loaded Lookup(%s) = %+v, %v", key, got, ok)
		}
	}
}

func TestReadJSONLRejectsSuspectEntries(t *testing.T) {
	in := strings.Join([]string{
		`{"key":"","record":{"kind":"chain"}}`,              // empty key
		`{"key":"k","record":{"kind":""}}`,                  // recordless (no kind)
		`{"key":"ok","record":{"kind":"chain","cycles":1}}`, // good
	}, "\n")
	c := New(8)
	added, rejected, err := c.ReadJSONL(strings.NewReader(in))
	if err != nil || added != 1 || rejected != 2 {
		t.Fatalf("ReadJSONL = %d, %d, %v; want 1, 2, nil", added, rejected, err)
	}
	if _, ok := c.Lookup("ok"); !ok {
		t.Fatal("valid entry was not loaded")
	}
}

// TestReadJSONLBoundsCycles: a record whose service time is not a
// positive count up to MaxCycles is rejected at load, so it becomes a
// cache miss instead of a finish_cycle that overflows in the replay.
func TestReadJSONLBoundsCycles(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cycles int64
		ok     bool
	}{
		{"negative", -5, false},
		{"zero", 0, false},
		{"huge", 9223372036854775000, false},
		{"above bound", MaxCycles + 1, false},
		{"at bound", MaxCycles, true},
		{"normal", 28152, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := fmt.Sprintf(`{"key":"k","record":{"kind":"chain","cycles":%d}}`+"\n", tc.cycles)
			c := New(8)
			added, rejected, err := c.ReadJSONL(strings.NewReader(in))
			if err != nil {
				t.Fatal(err)
			}
			wantAdded, wantRejected := 0, 1
			if tc.ok {
				wantAdded, wantRejected = 1, 0
			}
			if added != wantAdded || rejected != wantRejected {
				t.Fatalf("added %d rejected %d, want %d and %d", added, rejected, wantAdded, wantRejected)
			}
			if _, hit := c.Lookup("k"); hit != tc.ok {
				t.Fatalf("Lookup hit = %v, want %v", hit, tc.ok)
			}
		})
	}
}

func TestReadJSONLMalformed(t *testing.T) {
	c := New(8)
	if _, _, err := c.ReadJSONL(strings.NewReader(`{"key":"a"` + "\n")); err == nil {
		t.Fatal("malformed JSON must error, not be skipped")
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c := New(8)
	c.Add("x", rec(7))
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded := New(8)
	added, rejected, err := loaded.LoadFile(path)
	if err != nil || added != 1 || rejected != 0 {
		t.Fatalf("LoadFile = %d, %d, %v", added, rejected, err)
	}
	if got, ok := loaded.Lookup("x"); !ok || got.TotalCycles != 7 {
		t.Fatalf("Lookup(x) = %+v, %v", got, ok)
	}
}

func TestLoadFileMissing(t *testing.T) {
	c := New(8)
	added, rejected, err := c.LoadFile(filepath.Join(t.TempDir(), "nope.jsonl"))
	if err != nil || added != 0 || rejected != 0 {
		t.Fatalf("missing file must be a cold start, got %d, %d, %v", added, rejected, err)
	}
}

// TestAnalyticRecordsRefused: the cache holds measurements only. An
// analytic-stamped record is refused at Add and rejected at load — a
// prediction can never be replayed as an engine result.
func TestAnalyticRecordsRefused(t *testing.T) {
	c := New(8)
	stamped := rec(100)
	stamped.Timing = "analytic"
	c.Add("a", stamped)
	if _, ok := c.Lookup("a"); ok {
		t.Fatal("analytic record was cached")
	}
	if st := c.Stats(); st.Stores != 0 || st.Entries != 0 {
		t.Fatalf("refused Add moved counters: %+v", st)
	}

	// A persisted stream carrying a stamped entry (as if written by a
	// buggy or hostile producer) loads everything else and rejects it.
	src := New(8)
	src.Add("good", rec(100))
	var buf bytes.Buffer
	if err := src.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(`{"key":"bad","record":{"kind":"chain","cluster":"MemPool","cycles":1,"timing":"analytic"}}` + "\n")

	dst := New(8)
	added, rejected, err := dst.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 || rejected != 1 {
		t.Fatalf("added %d rejected %d, want 1 and 1", added, rejected)
	}
	if _, ok := dst.Lookup("bad"); ok {
		t.Fatal("stamped entry served after load")
	}
	if _, ok := dst.Lookup("good"); !ok {
		t.Fatal("clean entry lost")
	}
}

// Package timecache memoizes slot service times: the cycle-accurate
// result of one chain run, keyed by the full scenario coordinate
// (pusch.ChainConfig.CacheKey). The simulator is deterministic, so a
// coordinate maps to exactly one SlotRecord and a cache hit replays a
// cold run byte for byte — the cache trades memory for wall clock
// without ever trading away exactness. benchgate enforces that claim
// on every run (cached mixed-trace bytes == cold bytes).
//
// The cache is a bounded in-memory LRU safe for concurrent use, with a
// JSONL persist/load wire format so campaigns and puschd traces can
// warm-start across processes. Loading is defensive: entries whose key
// or record shape is implausible are counted and skipped, never
// served, so a stale or hand-damaged cache file degrades to misses —
// wrong timings cannot enter through the load path.
package timecache

import (
	"bufio"
	"container/list"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/report"
)

// DefaultCapacity bounds a cache built with capacity <= 0. Entries are
// a few hundred bytes each, so the default holds every coordinate any
// current campaign visits in a few tens of MB.
const DefaultCapacity = 1 << 16

// Stats is a point-in-time snapshot of cache traffic and occupancy.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Stores    int64 `json:"stores"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
}

// HitRate is Hits over total lookups, 0 when nothing was looked up.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// MaxCycles is the largest service time, in cycles, a loaded cache
// record may claim: 2^40 cycles (about 18 minutes of simulated time at
// 1 GHz) is far beyond any slot the engine measures.
// The bound keeps replay arithmetic in range: arrivals are capped at
// sched.MaxArrival = 2^62, which leaves 2^62 cycles of int64 headroom,
// room for 2^22 back-to-back services of MaxCycles each in one lane.
const MaxCycles int64 = 1 << 40

// Entry is the JSONL wire form of one memoized coordinate.
type Entry struct {
	Key    string            `json:"key"`
	Record report.SlotRecord `json:"record"`
}

type item struct {
	key string
	rec report.SlotRecord
}

// Cache is a bounded LRU from scenario coordinate to SlotRecord. All
// methods are safe for concurrent use; the zero value is not usable —
// construct with New.
type Cache struct {
	mu    sync.Mutex
	cap   int
	items map[string]*list.Element
	lru   *list.List // front = most recently used
	stats Stats
}

// New returns an empty cache holding at most capacity entries
// (DefaultCapacity when capacity <= 0).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		cap:   capacity,
		items: make(map[string]*list.Element),
		lru:   list.New(),
	}
}

// Lookup returns the record memoized under key. The boolean reports
// whether the key was present; hits refresh the entry's LRU position.
func (c *Cache) Lookup(key string) (report.SlotRecord, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.stats.Misses++
		return report.SlotRecord{}, false
	}
	c.stats.Hits++
	c.lru.MoveToFront(el)
	return el.Value.(*item).rec, true
}

// Add memoizes rec under key, evicting the least recently used entry
// when the cache is full. Re-adding an existing key refreshes its
// record and LRU position. Records stamped with a timing mode
// (Timing != "", i.e. analytic model predictions) are silently
// refused: the cache's contract is that every entry replays a
// cycle-accurate engine run byte for byte, and a prediction is not a
// measurement. (Analytic paths never derive a cache key in the first
// place — pusch.ChainConfig.CacheKey errors on them — so this guard is
// defense in depth.)
func (c *Cache) Add(key string, rec report.SlotRecord) {
	if rec.Timing != "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.add(key, rec)
}

func (c *Cache) add(key string, rec report.SlotRecord) {
	if el, ok := c.items[key]; ok {
		el.Value.(*item).rec = rec
		c.lru.MoveToFront(el)
		return
	}
	if c.lru.Len() >= c.cap {
		oldest := c.lru.Back()
		if oldest != nil {
			delete(c.items, oldest.Value.(*item).key)
			c.lru.Remove(oldest)
			c.stats.Evictions++
		}
	}
	c.items[key] = c.lru.PushFront(&item{key: key, rec: rec})
	c.stats.Stores++
}

// Len returns the current entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.lru.Len()
	s.Capacity = c.cap
	return s
}

// WriteJSONL persists every entry as one JSON line, sorted by key so
// the file bytes are deterministic regardless of insertion or access
// order.
func (c *Cache) WriteJSONL(w io.Writer) error {
	c.mu.Lock()
	entries := make([]Entry, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		it := el.Value.(*item)
		entries = append(entries, Entry{Key: it.key, Record: it.rec})
	}
	c.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range entries {
		if err := enc.Encode(&entries[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL loads entries from a WriteJSONL stream into the cache.
// added counts entries accepted; rejected counts structurally suspect
// lines (empty key, recordless entry, a service time outside
// [1, MaxCycles], or an analytic-stamped record, which is a model
// prediction and has no business in a cache of measurements) that were
// skipped — a poisoned or truncated-at-write cache entry becomes a
// future miss, never a wrong timing. Malformed JSON aborts with an
// error: that is file corruption, not a stale schema, and silently
// continuing could mask a half-written file.
func (c *Cache) ReadJSONL(r io.Reader) (added, rejected int, err error) {
	dec := json.NewDecoder(r)
	for {
		var e Entry
		if err := dec.Decode(&e); err != nil {
			if err == io.EOF {
				return added, rejected, nil
			}
			return added, rejected, fmt.Errorf("timecache: load: %w", err)
		}
		if e.Key == "" || e.Record.Kind == "" || e.Record.Timing != "" ||
			e.Record.TotalCycles <= 0 || e.Record.TotalCycles > MaxCycles {
			rejected++
			continue
		}
		c.mu.Lock()
		c.add(e.Key, e.Record)
		c.mu.Unlock()
		added++
	}
}

// SaveFile atomically persists the cache to path (write temp, rename).
func (c *Cache) SaveFile(path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".timecache-*.jsonl")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := c.WriteJSONL(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadFile warm-starts the cache from path. A missing file is not an
// error — it is simply a cold start.
func (c *Cache) LoadFile(path string) (added, rejected int, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, nil
		}
		return 0, 0, err
	}
	defer f.Close()
	return c.ReadJSONL(f)
}

package memsim

import (
	"testing"
	"testing/quick"

	"maia/internal/machine"
	"maia/internal/vclock"
)

func mustCache(t *testing.T, size, line, assoc int) *Cache {
	t.Helper()
	c, err := NewCache("T", size, line, assoc, vclock.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewCacheRejectsBadGeometry(t *testing.T) {
	if _, err := NewCache("x", 0, 64, 8, 0); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := NewCache("x", 1024, 0, 8, 0); err == nil {
		t.Error("line 0 accepted")
	}
	if _, err := NewCache("x", 1000, 64, 8, 0); err == nil {
		t.Error("non-divisible size accepted")
	}
}

func TestCacheColdMissThenHit(t *testing.T) {
	c := mustCache(t, 4096, 64, 4)
	if c.Lookup(0) {
		t.Fatal("cold lookup hit")
	}
	c.Fill(0)
	if !c.Lookup(0) {
		t.Fatal("lookup after fill missed")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d/%d, want 1/1", hits, misses)
	}
}

func TestCacheSameLineDifferentBytes(t *testing.T) {
	c := mustCache(t, 4096, 64, 4)
	c.Fill(0)
	if !c.Lookup(63) {
		t.Fatal("byte 63 of cached line missed")
	}
	if c.Lookup(64) {
		t.Fatal("next line hit without fill")
	}
}

// LRU: fill a set beyond its associativity; the least recently used line
// must be the one evicted.
func TestCacheLRUEviction(t *testing.T) {
	// 4 sets, assoc 2: lines mapping to set 0 are 0, 4, 8, ...
	c := mustCache(t, 64*4*2, 64, 2)
	addr := func(line int) uint64 { return uint64(line) * 64 }
	c.Fill(addr(0))
	c.Fill(addr(4))
	// Touch line 0 so line 4 becomes LRU.
	if !c.Lookup(addr(0)) {
		t.Fatal("line 0 evicted prematurely")
	}
	ev, did := c.Fill(addr(8))
	if !did || ev != 4 {
		t.Fatalf("evicted line %d (did=%v), want 4", ev, did)
	}
	if !c.Lookup(addr(0)) || c.Lookup(addr(4)) || !c.Lookup(addr(8)) {
		t.Fatal("post-eviction contents wrong")
	}
}

func TestCacheFillPromotesExisting(t *testing.T) {
	c := mustCache(t, 64*1*2, 64, 2) // one set, assoc 2
	c.Fill(0)
	c.Fill(64)
	// Re-fill line 0: must promote, not duplicate or evict.
	if _, did := c.Fill(0); did {
		t.Fatal("re-fill evicted")
	}
	// Now line at 64 is LRU.
	if ev, did := c.Fill(128); !did || ev != 1 {
		t.Fatalf("evicted %d, want line 1", ev)
	}
}

func TestCacheFlush(t *testing.T) {
	c := mustCache(t, 4096, 64, 4)
	c.Fill(0)
	c.Flush()
	if c.Lookup(0) {
		t.Fatal("hit after flush")
	}
	// Stats were reset then one miss recorded.
	if h, m := c.Stats(); h != 0 || m != 1 {
		t.Fatalf("stats after flush = %d/%d", h, m)
	}
}

// Property: a cache with S sets and associativity A holds at most A lines
// per set; re-accessing the A most recently used lines of a set always hits.
func TestCacheMRUAlwaysResident(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		c, err := NewCache("q", 64*8*4, 64, 4, 0) // 8 sets, assoc 4
		if err != nil {
			return false
		}
		rng := vclock.NewRNG(seed)
		var last []uint64 // last 4 distinct lines of set 0, most recent first
		for i := 0; i < int(n)+1; i++ {
			line := uint64(rng.Intn(64)) * 8 // all map to set 0
			c.Fill(line * 64)
			// Track recency of distinct lines.
			out := []uint64{line}
			for _, l := range last {
				if l != line {
					out = append(out, l)
				}
			}
			if len(out) > 4 {
				out = out[:4]
			}
			last = out
		}
		for _, l := range last {
			if !c.Lookup(l * 64) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: hits + misses equals total lookups for any access pattern.
func TestCacheStatsConsistent(t *testing.T) {
	f := func(addrs []uint16) bool {
		c, err := NewCache("q", 8192, 64, 8, 0)
		if err != nil {
			return false
		}
		for _, a := range addrs {
			if !c.Lookup(uint64(a)) {
				c.Fill(uint64(a))
			}
		}
		h, m := c.Stats()
		return h+m == uint64(len(addrs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyInclusive(t *testing.T) {
	h := MustHierarchy(machine.SandyBridge())
	// First access misses to memory.
	lv, lat := h.Access(0)
	if h.LevelName(lv) != "MEM" {
		t.Fatalf("cold access served by %s", h.LevelName(lv))
	}
	if lat.Nanoseconds() != 81 {
		t.Fatalf("cold access latency %v ns, want 81", lat.Nanoseconds())
	}
	// Second access hits L1.
	lv, lat = h.Access(0)
	if h.LevelName(lv) != "L1" || lat.Nanoseconds() != 1.5 {
		t.Fatalf("warm access = %s / %v ns", h.LevelName(lv), lat.Nanoseconds())
	}
	if h.MemAccesses() != 1 {
		t.Fatalf("mem accesses = %d, want 1", h.MemAccesses())
	}
}

func TestHierarchyL2HitFillsL1(t *testing.T) {
	h := MustHierarchy(machine.SandyBridge())
	// Evict line 0 from L1 by filling its set (64 sets in 32KB/64B/8):
	// lines 0, 64, 128, ... map to L1 set 0 but to distinct L2 sets
	// (L2 has 512 sets), so line 0 stays resident in L2.
	h.Access(0)
	for i := 1; i <= 8; i++ {
		h.Access(uint64(i) * 64 * 64)
	}
	// Line 0 must now be out of L1 but still in L2 (L2 set count 512, so
	// these lines spread over different L2 sets).
	lv, _ := h.Access(0)
	if h.LevelName(lv) != "L2" {
		t.Fatalf("expected L2 hit, got %s", h.LevelName(lv))
	}
	// And the L2 hit must have refilled L1.
	lv, _ = h.Access(0)
	if h.LevelName(lv) != "L1" {
		t.Fatalf("L2 hit did not refill L1 (got %s)", h.LevelName(lv))
	}
}

func TestHierarchyFlush(t *testing.T) {
	h := MustHierarchy(machine.XeonPhi5110P())
	h.Access(0)
	h.Flush()
	lv, _ := h.Access(0)
	if h.LevelName(lv) != "MEM" {
		t.Fatalf("access after flush served by %s", h.LevelName(lv))
	}
}

func TestPhiHierarchyLevels(t *testing.T) {
	h := MustHierarchy(machine.XeonPhi5110P())
	if len(h.Levels()) != 2 {
		t.Fatalf("Phi hierarchy has %d levels, want 2", len(h.Levels()))
	}
	if l2 := h.Levels()[1]; l2.sets*l2.assoc*l2.lineBytes != 512<<10 {
		t.Fatalf("Phi L2 size = %d", l2.sets*l2.assoc*l2.lineBytes)
	}
}

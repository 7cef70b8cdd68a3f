// Package memsim simulates the memory subsystems of the Maia node's two
// processor types: a set-associative, LRU, inclusive cache hierarchy in
// front of either DDR3 (host) or GDDR5 (Phi) main memory.
//
// It powers three of the paper's experiments:
//
//   - Figure 4: STREAM triad aggregate bandwidth vs thread count, including
//     the Phi's drop beyond 118 threads when access streams exceed the 128
//     simultaneously-open GDDR5 banks;
//   - Figure 5: memory load latency vs working-set size (the L1/L2/L3/DRAM
//     plateaus on the host, L1/L2/GDDR5 on the Phi), measured by running a
//     real pointer chase through the simulated hierarchy;
//   - Figure 6: per-core read and write bandwidth vs working-set size.
package memsim

import (
	"fmt"

	"maia/internal/machine"
	"maia/internal/vclock"
)

// Cache is one level of a set-associative cache with LRU replacement.
// Addresses are byte addresses; the cache operates on aligned lines.
type Cache struct {
	name      string
	lineBytes int
	sets      int
	assoc     int
	latency   vclock.Time

	// tags[s] holds the line tags resident in set s in LRU order:
	// index 0 is most recently used. Nil until the first Fill.
	tags [][]uint64

	hits, misses uint64
}

// NewCache builds a cache with the given geometry. sizeBytes must be a
// multiple of lineBytes*assoc; the set count is derived.
func NewCache(name string, sizeBytes, lineBytes, assoc int, latency vclock.Time) (*Cache, error) {
	if lineBytes <= 0 || assoc <= 0 || sizeBytes <= 0 {
		return nil, fmt.Errorf("memsim: non-positive cache geometry (%d/%d/%d)", sizeBytes, lineBytes, assoc)
	}
	if sizeBytes%(lineBytes*assoc) != 0 {
		return nil, fmt.Errorf("memsim: size %d not divisible by line*assoc %d", sizeBytes, lineBytes*assoc)
	}
	sets := sizeBytes / (lineBytes * assoc)
	c := &Cache{
		name:      name,
		lineBytes: lineBytes,
		sets:      sets,
		assoc:     assoc,
		latency:   latency,
	}
	return c, nil
}

// allocSets allocates the tag arrays on the cache's first Fill: most
// sweep points are priced in closed form and never touch a set, so a
// hierarchy that is only built costs no tag memory. All sets share one
// flat backing array: Fill caps each set at assoc entries, so the
// capacity-limited subslices never reallocate, and a 16K-set L3 costs
// two allocations instead of 16K.
func (c *Cache) allocSets() {
	c.tags = make([][]uint64, c.sets)
	backing := make([]uint64, c.sets*c.assoc)
	for i := range c.tags {
		c.tags[i] = backing[i*c.assoc : i*c.assoc : (i+1)*c.assoc]
	}
}

// Latency returns the hit latency of this level.
func (c *Cache) Latency() vclock.Time { return c.latency }

// line maps a byte address to its line number.
func (c *Cache) line(addr uint64) uint64 { return addr / uint64(c.lineBytes) }

// Lookup probes the cache for the line containing addr, updating LRU state
// on a hit. It does NOT allocate on a miss; use Fill for that.
func (c *Cache) Lookup(addr uint64) bool {
	ln := c.line(addr)
	if c.tags == nil { // nothing filled yet
		c.misses++
		return false
	}
	set := c.tags[ln%uint64(c.sets)]
	// MRU fast path: streaming accesses re-touch the most recent line, and
	// a hit at index 0 leaves LRU order unchanged, so no movement is
	// needed. This also fully covers the hit side of a direct-mapped
	// (assoc==1) cache, whose sets hold at most one line.
	if len(set) > 0 && set[0] == ln {
		c.hits++
		return true
	}
	if c.assoc == 1 {
		c.misses++
		return false
	}
	for i, tag := range set {
		if tag == ln {
			// Move to front (MRU).
			copy(set[1:i+1], set[:i])
			set[0] = ln
			c.hits++
			return true
		}
	}
	c.misses++
	return false
}

// Fill installs the line containing addr as MRU, evicting the LRU line of
// its set if the set is full. The evicted line number and true are
// returned when an eviction happened.
func (c *Cache) Fill(addr uint64) (evicted uint64, didEvict bool) {
	ln := c.line(addr)
	idx := ln % uint64(c.sets)
	if c.tags == nil {
		c.allocSets()
	}
	set := c.tags[idx]
	// Already present? Just promote.
	for i, tag := range set {
		if tag == ln {
			copy(set[1:i+1], set[:i])
			set[0] = ln
			return 0, false
		}
	}
	if len(set) < c.assoc {
		set = append(set, 0)
	} else {
		evicted, didEvict = set[len(set)-1], true
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = ln
	c.tags[idx] = set
	return evicted, didEvict
}

// Stats returns the cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// ResetStats clears hit/miss counters without touching cache contents.
func (c *Cache) ResetStats() { c.hits, c.misses = 0, 0 }

// Flush empties the cache (contents and statistics).
func (c *Cache) Flush() {
	for i := range c.tags {
		c.tags[i] = c.tags[i][:0]
	}
	c.ResetStats()
}

// Hierarchy is an inclusive multi-level cache hierarchy in front of main
// memory, modeling one core's view of the memory system.
type Hierarchy struct {
	proc   machine.ProcessorSpec
	levels []*Cache
	memLat vclock.Time

	memAccesses uint64

	// noFastPath forces the per-access simulation even for walks the
	// closed form (uniform.go) could price; the escape hatch the
	// equivalence property tests and CI use to keep the slow path
	// exercised.
	noFastPath bool
}

// NewHierarchy builds the hierarchy for one core of proc. Shared levels
// (the host L3) are modeled at full capacity: the micro-benchmarks the
// paper runs for Figures 5–6 are single-threaded per core, so one core can
// use the whole shared level.
func NewHierarchy(proc machine.ProcessorSpec) (*Hierarchy, error) {
	h := &Hierarchy{proc: proc, memLat: vclock.Time(proc.MemLatencyNs) * vclock.Nanosecond}
	for _, lv := range proc.Caches {
		c, err := NewCache(lv.Name, lv.SizeBytes, lv.LineBytes, lv.Assoc,
			vclock.Time(lv.LatencyNs)*vclock.Nanosecond)
		if err != nil {
			return nil, fmt.Errorf("memsim: %s: %w", lv.Name, err)
		}
		h.levels = append(h.levels, c)
	}
	return h, nil
}

// MustHierarchy is NewHierarchy that panics on error; the built-in
// processor specs are always valid.
func MustHierarchy(proc machine.ProcessorSpec) *Hierarchy {
	h, err := NewHierarchy(proc)
	if err != nil {
		panic(err)
	}
	return h
}

// Levels returns the cache levels, closest first.
func (h *Hierarchy) Levels() []*Cache { return h.levels }

// MemAccesses returns how many accesses reached main memory.
func (h *Hierarchy) MemAccesses() uint64 { return h.memAccesses }

// SetNoFastPath toggles the closed-form pricing (uniform.go) off (true)
// so every access walks the per-access simulation — the escape hatch
// equivalence tests and CI use. The MAIA_NO_FASTPATH environment
// variable forces the same globally.
func (h *Hierarchy) SetNoFastPath(v bool) { h.noFastPath = v }

// Flush empties every level.
func (h *Hierarchy) Flush() {
	for _, c := range h.levels {
		c.Flush()
	}
	h.memAccesses = 0
}

// Access performs one load (or store) of the line containing addr and
// returns the level index that served it (len(levels) means main memory)
// and the load-to-use latency charged.
func (h *Hierarchy) Access(addr uint64) (level int, lat vclock.Time) {
	for i, c := range h.levels {
		if c.Lookup(addr) {
			// Fill into faster levels (inclusive hierarchy).
			for j := 0; j < i; j++ {
				h.levels[j].Fill(addr)
			}
			return i, c.Latency()
		}
	}
	// Miss everywhere: fetch from memory, install in every level.
	h.memAccesses++
	for _, c := range h.levels {
		c.Fill(addr)
	}
	return len(h.levels), h.memLat
}

// LevelName returns a printable name for a level index returned by Access.
func (h *Hierarchy) LevelName(level int) string {
	if level >= 0 && level < len(h.levels) {
		return h.levels[level].name
	}
	return "MEM"
}

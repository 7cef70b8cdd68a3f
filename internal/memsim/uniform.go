package memsim

import (
	"math"
	"os"

	"maia/internal/vclock"
)

// The Figure 5/6 microbenchmarks — pointer chases and strided streams —
// walk the contiguous cache lines 0..P-1 cyclically, each line once per
// cycle, starting from a flushed hierarchy. For most such walks LRU
// residency has a closed form, priced here in O(levels) instead of one
// simulated access at a time.
//
// A level with S sets holds floor(P/S) to ceil(P/S) of the walk's lines
// in every touched set. Walking the levels fast-to-slow, the steady
// serving level is provable when every level encountered TOTALLY
// OVERFLOWS (every touched set holds at least assoc+1 walk lines) until
// a level is reached that HOLDS EVERY TOUCHED SET ENTIRELY (at most
// assoc lines per set) — or main memory, the total-overflow case.
//
// All-miss above: by induction, when all prior accesses were served at
// or below a level, each access touched it, so between two consecutive
// touches of a line all of its assoc-or-more same-set neighbours were
// touched there — an LRU stack distance of at least assoc, a miss. All-
// hit at the serving level: every access reaches it and its sets only
// ever see their at-most-assoc lines, so after the first cycle's
// compulsory misses nothing is evicted. The visit order never enters the
// argument, so a chase's permutation is never built.
//
// Partially resident levels have no such closed form (which lines keep
// reaching a slower level depends circularly on their own serving
// levels); they fall back to the per-access simulation, as do walks with
// gaps (strides wider than a line) and hierarchies with mixed line sizes.

// noFastPathEnv force-disables the closed form process-wide.
var noFastPathEnv = os.Getenv("MAIA_NO_FASTPATH") != ""

// servingLevel returns the level (len(h.levels) = main memory) that
// serves every steady access of a cyclic walk over the contiguous lines
// 0..lines-1, or -1 when the closed form refuses: the escape hatch is
// set, there are no cache levels, line sizes differ across levels (one
// address would map to different lines per level), or some level is
// partially resident.
func servingLevel(h *Hierarchy, lines int) int {
	if h.noFastPath || noFastPathEnv || len(h.levels) == 0 {
		return -1
	}
	for _, c := range h.levels[1:] {
		if c.lineBytes != h.levels[0].lineBytes {
			return -1
		}
	}
	p := uint64(lines)
	for lv, c := range h.levels {
		sets, assoc := uint64(c.sets), uint64(c.assoc)
		if (p+sets-1)/sets <= assoc {
			return lv
		}
		if p/sets < assoc+1 {
			return -1
		}
	}
	return len(h.levels)
}

// uniformSim prices a proven walk straight into its hierarchy's hit,
// miss and memory counters. Afterwards the counters are exact but the
// tag state is unspecified; callers must Flush before reusing the
// hierarchy (every measurement in this package does).
type uniformSim struct {
	h      *Hierarchy
	period int    // distinct lines per cycle
	extra  uint64 // same-L1-line follow-up hits per cycle
	sv     int    // steady serving level (len(h.levels) = main memory)
	cold   int    // compulsory accesses left, all served by main memory
}

// newUniformSim builds the engine for cycles of n accesses at addresses
// 0, stride, 2*stride, ... over a flushed hierarchy, grouped exactly as
// AccessRangeInto groups them: a line's first access walks the hierarchy
// and its follow-ups in the same line are L1 hits. It returns nil for
// strides wider than a line, which leave gaps, and when servingLevel
// refuses.
func newUniformSim(h *Hierarchy, n int, stride uint64) *uniformSim {
	if len(h.levels) == 0 || n <= 0 || stride > uint64(h.levels[0].lineBytes) {
		return nil
	}
	lines := int(uint64(n-1)*stride/uint64(h.levels[0].lineBytes)) + 1
	sv := servingLevel(h, lines)
	if sv < 0 {
		return nil
	}
	return &uniformSim{h: h, period: lines, extra: uint64(n - lines), sv: sv, cold: lines}
}

// run prices the next m line accesses, accumulating serve counts into
// counts (len(levels)+1, not cleared) when non-nil: the compulsory
// misses left at memory, then the rest at sv. Their latencies add into
// *latSink, when non-nil, as one float add per access would. Extras are
// charged per whole cycle, so an engine with extras must run whole
// cycles with a nil latSink (the strided walks' shape).
func (u *uniformSim) run(m int, latSink *vclock.Time, counts []uint64) {
	cold := min(m, u.cold)
	u.cold -= cold
	u.charge(len(u.h.levels), cold, latSink, counts)
	u.charge(u.sv, m-cold, latSink, counts)
	if e := u.extra * uint64(m/u.period); e > 0 {
		u.h.levels[0].hits += e
		if counts != nil {
			counts[0] += e
		}
	}
}

// charge prices m accesses served at level lv: a miss at every faster
// level, then a hit at lv or a main-memory access.
func (u *uniformSim) charge(lv, m int, latSink *vclock.Time, counts []uint64) {
	if m == 0 {
		return
	}
	um := uint64(m)
	lat := u.h.memLat
	for i, c := range u.h.levels {
		if i == lv {
			c.hits += um
			lat = c.latency
			break
		}
		c.misses += um
	}
	if lv == len(u.h.levels) {
		u.h.memAccesses += um
	}
	if counts != nil {
		counts[lv] += um
	}
	if latSink != nil {
		*latSink = repeatAdd(*latSink, lat, m)
	}
}

// repeatAdd returns t after k steps of t += c, bit-identical to that loop
// but in O(binades) steps (DESIGN.md §10). Inside one binade each step
// adds the same number of ulps once one real step inside it has settled
// round-half-even's parity; the next real step measures that increment.
// Steps that cross binades are real additions; t + c == t ends the sum.
func repeatAdd(t, c vclock.Time, k int) vclock.Time {
	const mant = 1<<52 - 1
	settled := false // the last step stayed inside one binade
	for ; k > 0; k-- {
		next := t + c
		tb, nb := math.Float64bits(float64(t)), math.Float64bits(float64(next))
		if nb == tb {
			return t // stagnation: no later step moves t either
		}
		inside := nb > tb && tb>>52 == nb>>52 // same sign and exponent, growing
		if settled && inside {
			d := nb - tb
			n := min(uint64(k-1), (mant-nb&mant)/d)
			next = vclock.Time(math.Float64frombits(nb + n*d))
			k -= int(n)
		}
		t, settled = next, inside
	}
	return t
}

// streamPasses walks n accesses at addresses 0, stride, 2*stride, ...
// once to warm the flushed hierarchy h, then passes more times, tallying
// each measured access's serving level into counts — in closed form when
// the walk is provable, through AccessRangeInto otherwise.
func streamPasses(h *Hierarchy, counts []uint64, n int, stride uint64, passes int) {
	if u := newUniformSim(h, n, stride); u != nil {
		u.run(u.period, nil, nil)
		u.run(passes*u.period, nil, counts)
		return
	}
	h.AccessRangeInto(make([]uint64, len(counts)), 0, n, stride)
	for p := 0; p < passes; p++ {
		h.AccessRangeInto(counts, 0, n, stride)
	}
}

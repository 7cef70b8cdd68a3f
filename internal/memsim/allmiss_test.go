package memsim

import (
	"math/rand"
	"testing"

	"maia/internal/machine"
)

// Property tests for the total-overflow case of the closed form: when
// every touched set at every level holds at least assoc+1 distinct walk
// lines, servingLevel proves all-memory outcomes without simulating a
// single access. These suites bias footprints ABOVE that threshold
// (the 300-trial suites in steady_test.go rarely reach it) and pin
// bit-equality against the per-element simulation.

// allMissLines returns the smallest chase footprint (in lines) that the
// total-overflow proof accepts for spec: max over levels of
// sets*(assoc+1).
func allMissLines(spec machine.ProcessorSpec) int {
	need := 1
	for _, c := range spec.Caches {
		sets := c.SizeBytes / (c.LineBytes * c.Assoc)
		if n := sets * (c.Assoc + 1); n > need {
			need = n
		}
	}
	return need
}

// TestChaseAllMissMatchesSlow drives ChaseLatency into the proven
// all-memory regime over randomized geometries (non-power-of-two sets,
// direct-mapped levels) and requires the analytic answer — computed
// without ever building the permutation — to match the real seeded
// pointer chase bit for bit, counters included.
func TestChaseAllMissMatchesSlow(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		spec := steadySpec(rng, 64)
		lines := allMissLines(spec) + rng.Intn(64)
		ws := lines * 64
		seed := rng.Uint64()
		fast, slow := MustHierarchy(spec), MustHierarchy(spec)
		slow.SetNoFastPath(true)
		var fp LatencyPoint
		withFastPath(func() {
			if sv := servingLevel(fast, lines); sv != len(fast.levels) {
				t.Fatalf("trial %d (lines=%d spec=%+v): overflowing chase served at level %d, want memory", trial, lines, spec, sv)
			}
			fp = ChaseLatency(fast, ws, seed)
		})
		sp := ChaseLatency(slow, ws, seed)
		if fp != sp {
			t.Fatalf("trial %d (lines=%d seed=%d spec=%+v): fast %+v, slow %+v", trial, lines, seed, spec, fp, sp)
		}
		requireSameCounters(t, trial, fast, slow)
	}
}

// TestStridedAllMissMatchesSlow is the same property for the strided
// walks behind ext-stride, including sub-line strides whose same-line
// follow-up accesses the closed form prices as a per-cycle count.
func TestStridedAllMissMatchesSlow(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 300; trial++ {
		lineBytes := 16 << rng.Intn(3)
		spec := steadySpec(rng, lineBytes)
		ws := (allMissLines(spec) + 2 + rng.Intn(8)) * lineBytes
		stride := 1 + rng.Intn(lineBytes) // sub-line through full-line
		// Keep the per-element simulation affordable: the differential
		// cares about the sub-line grouping, not the access count.
		if min := ws / 20000; stride < min {
			stride = min
		}
		elem := 1 + rng.Intn(stride)
		fast, slow := MustHierarchy(spec), MustHierarchy(spec)
		slow.SetNoFastPath(true)
		var fb float64
		withFastPath(func() {
			if u := newUniformSim(fast, ws/stride, uint64(stride)); u == nil || u.sv != len(fast.levels) {
				t.Fatalf("trial %d (ws=%d stride=%d spec=%+v): proof refused an overflowing walk", trial, ws, stride, spec)
			}
			fb = StridedBandwidth(fast, spec, ws, stride, elem)
		})
		sb := StridedBandwidth(slow, spec, ws, stride, elem)
		if fb != sb {
			t.Fatalf("trial %d (ws=%d stride=%d elem=%d spec=%+v): fast %v, slow %v", trial, ws, stride, elem, spec, fb, sb)
		}
		requireSameCounters(t, trial, fast, slow)
	}
}

// TestAllMissEngagementPins pins the closed form's reach: every walk
// production code prices gets a serving level — fig5's chases and
// fig6's streams, report's memory-latency chases, StrideDerate's walks
// and ext-stride's gathers — and partial residency and beyond-line
// strides refuse (TestSteadyEngineRefusals pins the other refusals).
func TestAllMissEngagementPins(t *testing.T) {
	withFastPath(func() {
		host := MustHierarchy(machine.SandyBridge())
		phi := MustHierarchy(machine.XeonPhi5110P())
		procs := []struct {
			name string
			h    *Hierarchy
		}{{"host", host}, {"phi", phi}}
		type walk struct {
			name   string
			h      *Hierarchy
			ws     int
			stride int
		}
		var walks []walk
		for _, p := range procs {
			// fig5 chases and fig6 streams one access per 64-byte line.
			for _, ws := range doublingSizes(4<<10, 64<<20) {
				walks = append(walks, walk{p.name + " doubling", p.h, ws, 64})
			}
			for _, stride := range []int{8, 16, 32, 64} {
				walks = append(walks, walk{p.name + " StrideDerate", p.h, 32 << 20, stride})
			}
		}
		walks = append(walks,
			walk{"phi report chase", phi, 8 << 20, 64},
			walk{"host report chase", host, 64 << 20, 64},
			walk{"host gather", host, 64 << 20, 64},
			walk{"phi gather", phi, 16 << 20, 64})
		for _, w := range walks {
			u := newUniformSim(w.h, w.ws/w.stride, uint64(w.stride))
			if u == nil {
				t.Errorf("%s %d B stride %d: closed form refused", w.name, w.ws, w.stride)
			} else if w.stride == 64 && u.extra != 0 {
				t.Errorf("%s %d B: a line-stride walk has %d same-line extras", w.name, w.ws, u.extra)
			}
		}
		// Spot checks: a 64 MB chase overflows even the host's 20 MB L3;
		// a 16 MB one is L3-resident once the cold cycle fills it.
		if sv := servingLevel(host, (64<<20)/64); sv != len(host.levels) {
			t.Errorf("host 64 MB served at level %d, want memory", sv)
		}
		if sv := servingLevel(host, (16<<20)/64); sv != 2 {
			t.Errorf("host 16 MB served at level %d, want 2 (L3)", sv)
		}
		// A partially resident footprint — between 20 and 21 lines per L3
		// set — has no closed form and must refuse.
		if sv := servingLevel(host, 330000); sv != -1 {
			t.Errorf("partially L3-resident chase served at level %d, want refusal", sv)
		}
		// Strides beyond a line leave per-set gaps.
		if u := newUniformSim(host, (32<<20)/128, 128); u != nil {
			t.Error("closed form accepted a beyond-line stride")
		}
	})
}

// TestChaseUniformLevelMatchesSlow sweeps footprints across every
// residency regime of randomized geometries — fully resident at some
// level, partially resident (per-access fallback), totally overflowing —
// and requires bit-equality with the per-element simulation throughout.
func TestChaseUniformLevelMatchesSlow(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		spec := steadySpec(rng, 64)
		lines := 1 + rng.Intn(allMissLines(spec)+64)
		ws := lines * 64
		seed := rng.Uint64()
		fast, slow := MustHierarchy(spec), MustHierarchy(spec)
		slow.SetNoFastPath(true)
		var fp LatencyPoint
		withFastPath(func() { fp = ChaseLatency(fast, ws, seed) })
		sp := ChaseLatency(slow, ws, seed)
		if fp != sp {
			t.Fatalf("trial %d (lines=%d seed=%d spec=%+v): fast %+v, slow %+v", trial, lines, seed, spec, fp, sp)
		}
		requireSameCounters(t, trial, fast, slow)
	}
}

// TestFig5PointsMatchSlow pins the actual Figure 5 machines: each
// doubling point that now prices in closed form must reproduce the
// per-element simulation bit for bit (the goldens depend on it).
func TestFig5PointsMatchSlow(t *testing.T) {
	if testing.Short() {
		t.Skip("slow-path 16 MB chases take a while")
	}
	for _, spec := range []machine.ProcessorSpec{machine.SandyBridge(), machine.XeonPhi5110P()} {
		for i, ws := range []int{4 << 10, 32 << 10, 64 << 10, 256 << 10, 512 << 10, 1 << 20, 16 << 20} {
			fast, slow := MustHierarchy(spec), MustHierarchy(spec)
			slow.SetNoFastPath(true)
			seed := uint64(1 + i)
			var fp LatencyPoint
			withFastPath(func() { fp = ChaseLatency(fast, ws, seed) })
			sp := ChaseLatency(slow, ws, seed)
			if fp != sp {
				t.Fatalf("%s ws=%d: fast %+v, slow %+v", spec.Name, ws, fp, sp)
			}
			if fast.MemAccesses() != slow.MemAccesses() {
				t.Fatalf("%s ws=%d: mem accesses fast %d, slow %d", spec.Name, ws, fast.MemAccesses(), slow.MemAccesses())
			}
		}
	}
}

// TestStrideDerateMemoized pins the maiad win: repeated StrideDerate
// calls for a catalog processor reuse the first measurement bit for bit.
func TestStrideDerateMemoized(t *testing.T) {
	withFastPath(func() {
		spec := machine.SandyBridge()
		d1 := StrideDerate(spec, 32)
		derateMu.Lock()
		_, cached := derateMemo[derateKey{proc: spec.Name, stride: 32}]
		derateMu.Unlock()
		if !cached {
			t.Error("StrideDerate did not memoize its result")
		}
		if d2 := StrideDerate(spec, 32); d2 != d1 {
			t.Errorf("memoized derate %v differs from first measurement %v", d2, d1)
		}
	})
}

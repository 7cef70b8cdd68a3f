package memsim

import (
	"math/rand"
	"testing"

	"maia/internal/machine"
)

// withFastPath runs fn with the closed form force-enabled, so
// assertions that it engages still hold when the whole test binary runs
// under MAIA_NO_FASTPATH=1 (the CI slow-path job).
func withFastPath(fn func()) {
	prev := noFastPathEnv
	noFastPathEnv = false
	defer func() { noFastPathEnv = prev }()
	fn()
}

// steadySpec builds a small hierarchy with a uniform line size (the
// closed form's eligibility condition), randomized level count,
// associativity (including direct-mapped) and set counts (including
// non-powers-of-two).
func steadySpec(rng *rand.Rand, lineBytes int) machine.ProcessorSpec {
	levels := 1 + rng.Intn(3)
	var caches []machine.CacheLevel
	sets := 1 + rng.Intn(7)
	for i := 0; i < levels; i++ {
		assoc := 1 << rng.Intn(3) // 1 (direct-mapped), 2, 4
		caches = append(caches, machine.CacheLevel{
			Name:            []string{"L1", "L2", "L3"}[i],
			SizeBytes:       lineBytes * assoc * sets,
			LineBytes:       lineBytes,
			Assoc:           assoc,
			LatencyNs:       float64(1 + i*5),
			ReadPerCoreGBs:  float64(40 - 10*i),
			WritePerCoreGBs: float64(30 - 8*i),
		})
		sets = sets*(2+rng.Intn(3)) + rng.Intn(3)
	}
	return machine.ProcessorSpec{
		Name: "rand", Caches: caches,
		MemLatencyNs: 100, MemReadPerCoreGBs: 5, MemWritePerCoreGBs: 4,
	}
}

// requireSameCounters asserts the fast and slow hierarchies observed
// bit-identical hit/miss/memory counters.
func requireSameCounters(t *testing.T, trial int, fast, slow *Hierarchy) {
	t.Helper()
	for lv := range slow.Levels() {
		sh, sm := slow.Levels()[lv].Stats()
		fh, fm := fast.Levels()[lv].Stats()
		if fh != sh || fm != sm {
			t.Fatalf("trial %d: level %d stats fast %d/%d, slow %d/%d", trial, lv, fh, fm, sh, sm)
		}
	}
	if fast.MemAccesses() != slow.MemAccesses() {
		t.Fatalf("trial %d: mem accesses fast %d, slow %d", trial, fast.MemAccesses(), slow.MemAccesses())
	}
}

// TestChaseLatencySteadyMatchesSlow is the exactness property: the
// closed form's latency and hit/miss counters must be BIT-identical to
// the per-element simulation over randomized cache geometries and
// footprints (the partially resident ones take the fallback on both
// sides).
func TestChaseLatencySteadyMatchesSlow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		spec := steadySpec(rng, 64) // chases address 64-byte lines
		fast, slow := MustHierarchy(spec), MustHierarchy(spec)
		slow.SetNoFastPath(true)
		lines := 1 + rng.Intn(300)
		ws := lines * 64
		seed := rng.Uint64()
		fp := ChaseLatency(fast, ws, seed)
		sp := ChaseLatency(slow, ws, seed)
		if fp != sp {
			t.Fatalf("trial %d (ws=%d seed=%d spec=%+v): fast %+v, slow %+v", trial, ws, seed, spec, fp, sp)
		}
		requireSameCounters(t, trial, fast, slow)
	}
}

// TestStridedBandwidthSteadyMatchesSlow covers the strided sweeps,
// including non-power-of-two and sub-line strides.
func TestStridedBandwidthSteadyMatchesSlow(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		lineBytes := 16 << rng.Intn(3)
		spec := steadySpec(rng, lineBytes)
		fast, slow := MustHierarchy(spec), MustHierarchy(spec)
		slow.SetNoFastPath(true)
		ws := 1 + rng.Intn(16<<10)
		stride := 1 + rng.Intn(3*lineBytes) // includes non-powers-of-two
		elem := 1 + rng.Intn(16)
		fb := StridedBandwidth(fast, spec, ws, stride, elem)
		sb := StridedBandwidth(slow, spec, ws, stride, elem)
		if fb != sb {
			t.Fatalf("trial %d (ws=%d stride=%d elem=%d): fast %v, slow %v", trial, ws, stride, elem, fb, sb)
		}
		requireSameCounters(t, trial, fast, slow)
	}
}

// TestStreamBandwidthSteadyMatchesSlow covers the sequential streaming
// sweep behind Figure 6.
func TestStreamBandwidthSteadyMatchesSlow(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		lineBytes := 16 << rng.Intn(3)
		spec := steadySpec(rng, lineBytes)
		fast, slow := MustHierarchy(spec), MustHierarchy(spec)
		slow.SetNoFastPath(true)
		ws := 1 + rng.Intn(32<<10)
		fp := StreamBandwidth(fast, spec, ws)
		sp := StreamBandwidth(slow, spec, ws)
		if fp != sp {
			t.Fatalf("trial %d (ws=%d): fast %+v, slow %+v", trial, ws, fp, sp)
		}
		requireSameCounters(t, trial, fast, slow)
	}
}

// TestSteadyEngineRefusals pins the fallback conditions: the escape
// hatch and non-uniform line sizes must disable the closed form.
func TestSteadyEngineRefusals(t *testing.T) {
	withFastPath(func() {
		h := MustHierarchy(machine.SandyBridge())
		h.SetNoFastPath(true)
		if sv := servingLevel(h, (64<<20)/64); sv != -1 {
			t.Errorf("SetNoFastPath ignored: served at level %d", sv)
		}
		if u := newUniformSim(h, (32<<20)/8, 8); u != nil {
			t.Error("strided walk ignored SetNoFastPath")
		}
		// Non-uniform line sizes map one address to different lines per
		// level.
		mixed := MustHierarchy(machine.ProcessorSpec{
			Name: "mixed",
			Caches: []machine.CacheLevel{
				{Name: "L1", SizeBytes: 1024, LineBytes: 32, Assoc: 2, LatencyNs: 1},
				{Name: "L2", SizeBytes: 4096, LineBytes: 64, Assoc: 2, LatencyNs: 5},
			},
			MemLatencyNs: 100,
		})
		if sv := servingLevel(mixed, 64); sv != -1 {
			t.Errorf("mixed line sizes served at level %d, want refusal", sv)
		}
		if u := newUniformSim(mixed, 64, 64); u != nil {
			t.Error("closed form accepted non-uniform line sizes")
		}
	})
}

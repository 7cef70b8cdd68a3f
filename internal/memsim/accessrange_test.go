package memsim

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"maia/internal/machine"
)

// randomSpec builds a small hierarchy with randomized line size,
// associativity (including direct-mapped), level count and capacities.
func randomSpec(rng *rand.Rand) machine.ProcessorSpec {
	lineBytes := 16 << rng.Intn(3) // 16, 32, 64
	levels := 1 + rng.Intn(3)
	var caches []machine.CacheLevel
	size := lineBytes * (1 + rng.Intn(4)) * (1 << rng.Intn(3)) // a few lines
	for i := 0; i < levels; i++ {
		assoc := 1 << rng.Intn(3) // 1 (direct-mapped), 2, 4
		// Size must be a multiple of lineBytes*assoc.
		sz := size * assoc
		caches = append(caches, machine.CacheLevel{
			Name:      []string{"L1", "L2", "L3"}[i],
			SizeBytes: sz,
			LineBytes: lineBytes,
			Assoc:     assoc,
			LatencyNs: float64(1 + i*5),
		})
		size = sz * (2 + rng.Intn(2))
	}
	return machine.ProcessorSpec{Name: "rand", Caches: caches, MemLatencyNs: 100}
}

// TestAccessRangeMatchesNaive is the exactness property: over random
// (addr, n, stride, assoc, level geometry), AccessRangeInto must agree with
// the naive per-element Access loop on the serving-level counts, every
// level's hit/miss counters, and the memory access count — i.e. the fast
// path is undetectable.
func TestAccessRangeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		spec := randomSpec(rng)
		naive, err := NewHierarchy(spec)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		fast, err := NewHierarchy(spec)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		// A few batches back to back, so later batches start from
		// non-empty (and identical) cache state.
		for batch := 0; batch < 3; batch++ {
			addr := uint64(rng.Intn(1 << 16))
			n := rng.Intn(200)
			stride := uint64(rng.Intn(100)) // includes 0 and sub-line strides
			wantCounts := make([]uint64, len(naive.Levels())+1)
			for i := 0; i < n; i++ {
				lv, _ := naive.Access(addr + uint64(i)*stride)
				wantCounts[lv]++
			}
			counts := make([]uint64, len(wantCounts))
			fast.AccessRangeInto(counts, addr, n, stride)
			for lv := range wantCounts {
				if counts[lv] != wantCounts[lv] {
					t.Fatalf("trial %d batch %d (addr=%d n=%d stride=%d): level %d count %d, naive %d",
						trial, batch, addr, n, stride, lv, counts[lv], wantCounts[lv])
				}
			}
			if sum(counts) != uint64(n) {
				t.Fatalf("trial %d batch %d: tallied %d accesses, want %d", trial, batch, sum(counts), n)
			}
			for lv := range naive.Levels() {
				nh, nm := naive.Levels()[lv].Stats()
				fh, fm := fast.Levels()[lv].Stats()
				if nh != fh || nm != fm {
					t.Fatalf("trial %d batch %d level %d: hits/misses %d/%d, naive %d/%d",
						trial, batch, lv, fh, fm, nh, nm)
				}
			}
			if naive.MemAccesses() != fast.MemAccesses() {
				t.Fatalf("trial %d batch %d: mem accesses %d, naive %d",
					trial, batch, fast.MemAccesses(), naive.MemAccesses())
			}
		}
	}
}

// TestAccessRangeLRUStateMatches drives both hierarchies through a
// batched phase and then a shared probe phase: if the fast path had
// perturbed LRU order, the probe outcomes would diverge.
func TestAccessRangeLRUStateMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		spec := randomSpec(rng)
		naive := MustHierarchy(spec)
		fast := MustHierarchy(spec)
		addr := uint64(rng.Intn(4096))
		n := 1 + rng.Intn(300)
		stride := uint64(1 + rng.Intn(80))
		for i := 0; i < n; i++ {
			naive.Access(addr + uint64(i)*stride)
		}
		fast.AccessRangeInto(make([]uint64, len(fast.Levels())+1), addr, n, stride)
		// Probe random addresses through both; any LRU divergence shows
		// up as a different serving level.
		for p := 0; p < 200; p++ {
			a := uint64(rng.Intn(1 << 14))
			nlv, nlat := naive.Access(a)
			flv, flat := fast.Access(a)
			if nlv != flv || nlat != flat {
				t.Fatalf("trial %d probe %d addr=%d: level/lat %d/%v, naive %d/%v",
					trial, p, a, flv, flat, nlv, nlat)
			}
		}
	}
}

func TestAccessRangeEdgeCases(t *testing.T) {
	h := MustHierarchy(machine.SandyBridge())
	counts := make([]uint64, len(h.Levels())+1)
	if h.AccessRangeInto(counts, 0, 0, 8); sum(counts) != 0 {
		t.Fatalf("n=0 tallied %d accesses", sum(counts))
	}
	if h.AccessRangeInto(counts, 128, -3, 8); sum(counts) != 0 {
		t.Fatalf("n<0 tallied %d accesses", sum(counts))
	}
	// Zero stride: one real access, then pure L1 hits.
	h.Flush()
	h.AccessRangeInto(counts, 64, 100, 0)
	if sum(counts) != 100 {
		t.Fatalf("zero stride tallied %d accesses, want 100", sum(counts))
	}
	if counts[0] != 99 {
		t.Fatalf("zero stride: %d L1 hits, want 99", counts[0])
	}
}

// A panic in a sweep worker re-raises on the goroutine that called
// sweepPoints, after the other workers have run every remaining point,
// instead of killing the process from a goroutine nobody recovers.
func TestSweepPointsWorkerPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // force worker goroutines
	const n = 64
	var ran atomic.Int32
	defer func() {
		if p := recover(); p != "point 5" {
			t.Fatalf("recovered %v, want the worker's panic", p)
		}
		if got := ran.Load(); got != n-1 {
			t.Fatalf("%d of the other %d points ran", got, n-1)
		}
	}()
	sweepPoints(n, func(i int) {
		if i == 5 {
			panic("point 5")
		}
		ran.Add(1)
	})
	t.Fatal("sweepPoints returned after a worker panicked")
}

// sum returns the total access count tallied in counts.
func sum(counts []uint64) uint64 {
	var n uint64
	for _, c := range counts {
		n += c
	}
	return n
}

package memsim

import (
	"math"
	"testing"

	"maia/internal/machine"
)

func within(t *testing.T, what string, got, want, relTol float64) {
	t.Helper()
	if math.Abs(got-want) > relTol*math.Abs(want) {
		t.Errorf("%s = %v, want %v (±%v%%)", what, got, want, relTol*100)
	}
}

// Figure 5, host side: four distinct latency regions. Deep inside each
// region the chase must measure the level's latency.
func TestHostLatencyPlateaus(t *testing.T) {
	h := MustHierarchy(machine.SandyBridge())
	within(t, "host 16KB", ChaseLatency(h, 16<<10, 1).LatencyNs, 1.5, 0.05)
	within(t, "host 128KB", ChaseLatency(h, 128<<10, 2).LatencyNs, 4.6, 0.05)
	within(t, "host 4MB", ChaseLatency(h, 4<<20, 3).LatencyNs, 15, 0.05)
	within(t, "host 64MB", ChaseLatency(h, 64<<20, 4).LatencyNs, 81, 0.05)
}

// Figure 5, Phi side: three regions with much higher latencies; main
// memory (GDDR5) latency is 295 ns vs the host's 81 ns.
func TestPhiLatencyPlateaus(t *testing.T) {
	h := MustHierarchy(machine.XeonPhi5110P())
	within(t, "phi 16KB", ChaseLatency(h, 16<<10, 1).LatencyNs, 2.9, 0.05)
	within(t, "phi 256KB", ChaseLatency(h, 256<<10, 2).LatencyNs, 22.9, 0.05)
	within(t, "phi 8MB", ChaseLatency(h, 8<<20, 3).LatencyNs, 295, 0.05)
}

// monotoneGrids are the working-set grids the monotonicity properties
// sweep: Figures 5 and 6 (the same 4 KB–64 MB doubling), and that grid
// interleaved with its 1.5× points (6 KB, 12 KB, ..., 48 MB).
func monotoneGrids() map[string][]int {
	doubling := doublingSizes(4<<10, 64<<20)
	var interleaved []int
	for _, ws := range doubling {
		interleaved = append(interleaved, ws)
		if ws < 64<<20 {
			interleaved = append(interleaved, ws*3/2)
		}
	}
	return map[string][]int{"fig5/fig6 doubling": doubling, "1.5x interleaved": interleaved}
}

// TestCurvesMonotoneInWorkingSet is the metamorphic property behind
// Figures 5 and 6: on both catalog processors, a chase's latency never
// falls as its working set grows, and a stream's read and write
// bandwidths never rise. Points on one plateau differ only by float
// rounding: a chase's mean sums up to 2^20 latencies, whose rounding
// error stays below 2^20·2^-53 ≈ 1.2e-10 of the total, so a step
// counts as a violation only past a relative slack of 1e-9.
func TestCurvesMonotoneInWorkingSet(t *testing.T) {
	const slack = 1e-9
	falls := func(from, to float64) bool { return to < from*(1-slack) }
	for _, proc := range []machine.ProcessorSpec{machine.SandyBridge(), machine.XeonPhi5110P()} {
		for name, sizes := range monotoneGrids() {
			h := MustHierarchy(proc)
			var lat LatencyPoint
			var bw BandwidthPoint
			for i, ws := range sizes {
				l := ChaseLatency(h, ws, uint64(1+i))
				b := StreamBandwidth(h, proc, ws)
				if i > 0 && falls(lat.LatencyNs, l.LatencyNs) {
					t.Errorf("%s %s: latency fell from %v ns (%d B) to %v ns (%d B)",
						proc.Architecture, name, lat.LatencyNs, lat.WorkingSetBytes, l.LatencyNs, ws)
				}
				if i > 0 && (falls(b.ReadGBs, bw.ReadGBs) || falls(b.WriteGBs, bw.WriteGBs)) {
					t.Errorf("%s %s: bandwidth rose from %v/%v GB/s (%d B) to %v/%v GB/s (%d B)",
						proc.Architecture, name, bw.ReadGBs, bw.WriteGBs, bw.WorkingSetBytes, b.ReadGBs, b.WriteGBs, ws)
				}
				lat, bw = l, b
			}
		}
	}
}

// Determinism: the same sweep twice yields identical numbers.
func TestLatencyCurveDeterministic(t *testing.T) {
	a := LatencyCurve(machine.XeonPhi5110P(), 4<<10, 1<<20)
	b := LatencyCurve(machine.XeonPhi5110P(), 4<<10, 1<<20)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// The paper's headline comparison: Phi memory latency is ~3.6x the host's.
func TestPhiLatencyDisadvantage(t *testing.T) {
	hostMem := machine.SandyBridge().MemLatencyNs
	phiMem := machine.XeonPhi5110P().MemLatencyNs
	ratio := phiMem / hostMem
	if ratio < 3 || ratio > 4 {
		t.Errorf("phi/host memory latency ratio = %v, want ~3.6", ratio)
	}
}

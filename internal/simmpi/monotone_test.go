package simmpi

import (
	"testing"

	"maia/internal/machine"
)

// monotoneSizes is the 1 B..max doubling grid interleaved with its 1.5x
// points (1, 2, 3, 4, 6, 8, 12, ...).
func monotoneSizes(max int) []int {
	var out []int
	for s := 1; s <= max; s *= 2 {
		out = append(out, s)
		if mid := s * 3 / 2; mid > s && mid <= max {
			out = append(out, mid)
		}
	}
	return out
}

// TestCollectivesMonotoneInBytes is a metamorphic property of the
// collective models: on every world shape the experiments price — the
// Figure 11–14 host and Phi worlds and the host racks of the ext-rack
// sweeps — one operation never gets cheaper as its message grows.
// Allgather stops at 256 KB and Alltoall at 64 KB, which keeps the
// goroutine-engine run (MAIA_NO_FASTPATH=1) to a couple of seconds.
// The 1e-9 relative slack absorbs float summation rounding only.
func TestCollectivesMonotoneInBytes(t *testing.T) {
	worlds := []struct {
		name string
		cfg  Config
	}{
		{"host16", Config{Ranks: HostPlacement(16, 1)}},
		{"phi59", Config{Ranks: PhiPlacement(machine.Phi0, 59, 1)}},
		{"phi64", Config{Ranks: PhiPlacement(machine.Phi0, 64, 1)}},
		{"phi236", Config{Ranks: PhiPlacement(machine.Phi0, 236, 4)}},
		{"rack2x16", Config{Ranks: RackPlacement(machine.Host, 2, 16, 1), Fabric: machine.NewRackFabric(2)}},
		{"rack4x4", Config{Ranks: RackPlacement(machine.Host, 4, 4, 1), Fabric: machine.NewRackFabric(4)}},
	}
	kinds := []struct {
		kind CollectiveKind
		max  int
	}{
		{BcastKind, 4 << 20},
		{AllreduceKind, 4 << 20},
		{AllgatherKind, 256 << 10},
		{AlltoallKind, 64 << 10},
	}
	for _, w := range worlds {
		for _, k := range kinds {
			prev, prevSize := 0.0, 0
			for _, m := range monotoneSizes(k.max) {
				tm, err := CollectiveTime(w.cfg, k.kind, m, 1)
				if err != nil {
					t.Fatalf("%s %v %d B: %v", w.name, k.kind, m, err)
				}
				if s := tm.Seconds(); s < prev*(1-1e-9) {
					t.Errorf("%s %v: %d B takes %.6g s, less than %.6g s at %d B",
						w.name, k.kind, m, s, prev, prevSize)
				}
				prev, prevSize = tm.Seconds(), m
			}
		}
	}
}

package simmpi

import (
	"math"
	"math/rand"
	"testing"

	"maia/internal/machine"
	"maia/internal/simfault"
	"maia/internal/vclock"
)

// The rack differential suite: on small two-level worlds (2-8 nodes x
// 1-16 ranks per node) the hierarchical closed-form replay must
// reproduce the goroutine engine's virtual times BIT for bit, mirroring
// repeat_test.go's flat properties. Refusal cases — heterogeneous
// nodes, fault plans, non-power-of-two node counts, asymmetric kinds —
// must fall back to the goroutine engine on both sides.

// randomRack builds a random node-major rack world of identical nodes.
func randomRack(rng *rand.Rand) Config {
	nodeCounts := []int{2, 4, 8}
	perNode := []int{1, 2, 4, 6, 8, 16}
	n := nodeCounts[rng.Intn(len(nodeCounts))]
	r := perNode[rng.Intn(len(perNode))]
	var locs []Location
	switch rng.Intn(3) {
	case 0:
		locs = RackPlacement(machine.Host, n, r, 1+rng.Intn(2))
	case 1:
		locs = RackPlacement(machine.Phi0, n, r, 1+rng.Intn(4))
	default:
		// Mixed host+Phi nodes: heterogeneous WITHIN a node is fine for
		// the replay as long as all nodes are identical.
		half := (r + 1) / 2
		nodeLocs := append(HostPlacement(half, 1), PhiPlacement(machine.Phi0, r-half, 1)...)
		locs = ReplicateNodes(nodeLocs, n)
	}
	return Config{Ranks: locs, Fabric: machine.NewRackFabric(n)}
}

// seqSlow runs a script on the goroutine engine and returns the
// makespan.
func seqSlow(t *testing.T, cfg Config, steps []SeqStep, iters int) vclock.Time {
	t.Helper()
	cfg.SizeOnlyPayloads = true
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RunSeq(steps, iters); err != nil {
		t.Fatal(err)
	}
	return w.MaxTime()
}

// TestRackReplayMatchesFullRun is the headline property: >= 300
// randomized (world x kind x size x iters) trials pin the rack replay
// to the goroutine engine exactly.
func TestRackReplayMatchesFullRun(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	kinds := []CollectiveKind{AllreduceKind, AllgatherKind, AlltoallKind, PairKind}
	trials := 0
	for trials < 320 {
		cfg := randomRack(rng)
		kind := kinds[rng.Intn(len(kinds))]
		msg := 1 + rng.Intn(8<<10)
		if kind == AlltoallKind {
			msg = 1 + rng.Intn(512) // bound the leader aggregates
		}
		iters := 1 + rng.Intn(3)
		steps := []SeqStep{{Kind: kind, Bytes: msg}}
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var fast vclock.Time
		var ok bool
		withFastPath(func() {
			fast, ok = w.RepeatSeq(steps, iters)
		})
		perNode := len(cfg.Ranks) / cfg.Fabric.Nodes
		if !ok {
			if kind != PairKind || perNode%2 == 0 || perNode == 1 {
				t.Fatalf("trial %d: replay refused an eligible world (nodes=%d per=%d kind=%v)",
					trials, cfg.Fabric.Nodes, perNode, kind)
			}
			continue // odd per-node PairKind legitimately falls back
		}
		slow := seqSlow(t, cfg, steps, iters)
		if fast != slow {
			t.Fatalf("trial %d (nodes=%d per=%d dev=%v kind=%v msg=%d iters=%d): fast %v, slow %v",
				trials, cfg.Fabric.Nodes, perNode, cfg.Ranks[0].Device, kind, msg, iters, fast, slow)
		}
		checkSeqCounters(t, cfg, steps, iters)
		trials++
	}
}

// TestRackReplayScripts covers multi-step scripts with per-local-index
// compute — the OVERFLOW/NPB driver shape.
func TestRackReplayScripts(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 60; trial++ {
		cfg := randomRack(rng)
		perNode := len(cfg.Ranks) / cfg.Fabric.Nodes
		comp := make([]vclock.Time, perNode)
		for j := range comp {
			comp[j] = vclock.Time(rng.Float64()) * 50 * vclock.Microsecond
		}
		steps := []SeqStep{
			{ComputePer: comp, Kind: AlltoallKind, Bytes: 1 + rng.Intn(256)},
			{Compute: 3 * vclock.Microsecond, Kind: AllreduceKind, Bytes: 8},
			{Kind: AllgatherKind, Bytes: 1 + rng.Intn(4<<10)},
		}
		iters := 1 + rng.Intn(3)
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var fast vclock.Time
		var ok bool
		withFastPath(func() {
			fast, ok = w.RepeatSeq(steps, iters)
		})
		if !ok {
			t.Fatalf("trial %d: script replay refused (nodes=%d per=%d)", trial, cfg.Fabric.Nodes, perNode)
		}
		slow := seqSlow(t, cfg, steps, iters)
		if fast != slow {
			t.Fatalf("trial %d (nodes=%d per=%d): fast %v, slow %v",
				trial, cfg.Fabric.Nodes, perNode, fast, slow)
		}
		checkSeqCounters(t, cfg, steps, iters)
	}
}

// TestRackCollectiveTimeMatches pins the public CollectiveTime entry
// point on rack worlds (the RepeatOp wiring).
func TestRackCollectiveTimeMatches(t *testing.T) {
	cfg := Config{
		Ranks:  RackPlacement(machine.Host, 4, 4, 1),
		Fabric: machine.NewRackFabric(4),
	}
	for _, kind := range []CollectiveKind{AllreduceKind, AllgatherKind, AlltoallKind} {
		var fast, slow vclock.Time
		var err error
		withFastPath(func() {
			fast, err = CollectiveTime(cfg, kind, 512, 3)
		})
		if err != nil {
			t.Fatal(err)
		}
		withSlowPath(func() {
			slow, err = CollectiveTime(cfg, kind, 512, 3)
		})
		if err != nil {
			t.Fatal(err)
		}
		if fast != slow {
			t.Errorf("%v: fast %v != slow %v", kind, fast, slow)
		}
		checkOpCounters(t, cfg, kind, 512, 3)
	}
}

// TestRackReplayRefusals pins every rack fallback condition.
func TestRackReplayRefusals(t *testing.T) {
	prev := noFastPathEnv
	noFastPathEnv = false
	defer func() { noFastPathEnv = prev }()

	rack := Config{Ranks: RackPlacement(machine.Host, 4, 4, 1), Fabric: machine.NewRackFabric(4)}
	w, err := NewWorld(rack)
	if err != nil {
		t.Fatal(err)
	}
	if w.rack == nil {
		t.Fatal("node-major fabric world not detected as rack")
	}
	step := []SeqStep{{Kind: AllgatherKind, Bytes: 64}}
	if _, ok := w.RepeatSeq(step, 1); !ok {
		t.Error("refused a healthy power-of-two rack")
	}
	if _, ok := w.RepeatSeq([]SeqStep{{Kind: BcastKind, Bytes: 64}}, 1); ok {
		t.Error("replayed the asymmetric hierarchical Bcast")
	}

	// Non-power-of-two node count.
	odd, err := NewWorld(Config{Ranks: RackPlacement(machine.Host, 3, 4, 1), Fabric: machine.NewRackFabric(3)})
	if err != nil {
		t.Fatal(err)
	}
	if odd.rack == nil {
		t.Fatal("3-node world not detected as rack")
	}
	if _, ok := odd.RepeatSeq(step, 1); ok {
		t.Error("replayed a non-power-of-two node count")
	}

	// Heterogeneous speeds across nodes.
	locs := append(RackPlacement(machine.Host, 1, 4, 1), ReplicateNodes(PhiPlacement(machine.Phi0, 4, 1), 1)...)
	for i := range locs[4:] {
		locs[4+i].Node = 1
	}
	het, err := NewWorld(Config{Ranks: locs, Fabric: machine.NewRackFabric(2)})
	if err != nil {
		t.Fatal(err)
	}
	if het.rack == nil {
		t.Fatal("heterogeneous two-node world not detected as rack")
	}
	if _, ok := het.RepeatSeq(step, 1); ok {
		t.Error("replayed nodes with different per-node layouts")
	}

	// Faulted plans refuse the fast path but still run hierarchically.
	faulted, err := NewWorld(rack, WithFaultPlan(simfault.PhiStraggler()))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := faulted.RepeatSeq(step, 1); ok {
		t.Error("replayed a faulted rack world")
	}
	if err := faulted.RunSeq(step, 1); err != nil {
		t.Errorf("goroutine fallback on faulted rack: %v", err)
	}
	if faulted.MaxTime() <= 0 {
		t.Error("faulted rack run consumed no virtual time")
	}

	// Odd ranks-per-node PairKind mixes intra/inter pairs.
	odd3, err := NewWorld(Config{Ranks: RackPlacement(machine.Host, 2, 3, 1), Fabric: machine.NewRackFabric(2)})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := odd3.RepeatSeq([]SeqStep{{Kind: PairKind, Bytes: 64}}, 1); ok {
		t.Error("replayed PairKind with odd ranks per node")
	}

	// The escape hatch.
	withSlowPath(func() {
		if _, ok := w.RepeatSeq(step, 1); ok {
			t.Error("ignored the MAIA_NO_FASTPATH escape hatch")
		}
	})

	// Non-node-major placements with a fabric stay flat.
	scattered := Config{
		Ranks:  []Location{{machine.Host, 1, 0}, {machine.Host, 1, 1}, {machine.Host, 1, 0}, {machine.Host, 1, 1}},
		Fabric: machine.NewRackFabric(2),
	}
	ws, err := NewWorld(scattered)
	if err != nil {
		t.Fatal(err)
	}
	if ws.rack != nil {
		t.Error("scattered placement detected as node-major rack")
	}
}

// TestRackFabricValidation pins the Node bounds check.
func TestRackFabricValidation(t *testing.T) {
	locs := RackPlacement(machine.Host, 4, 2, 1)
	if _, err := NewWorld(Config{Ranks: locs, Fabric: machine.NewRackFabric(2)}); err == nil {
		t.Error("accepted node indices outside the fabric")
	}
}

// TestHierContentCorrectness checks the hierarchical collectives move
// real bytes correctly in content-preserving mode: Allgather and
// Alltoall reassemble exactly, Allreduce matches the flat result
// (exactly for Max, to rounding for Sum whose combine order differs).
func TestHierContentCorrectness(t *testing.T) {
	cfg := Config{Ranks: RackPlacement(machine.Host, 4, 3, 1), Fabric: machine.NewRackFabric(4)}
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := w.size
	err = w.Run(func(r *Rank) {
		id := r.ID()
		// Allgather: rank i contributes [i, i].
		block := []byte{byte(id), byte(id)}
		got := r.Allgather(block)
		for i := 0; i < n; i++ {
			if got[2*i] != byte(i) || got[2*i+1] != byte(i) {
				panic("Allgather block mismatch")
			}
		}
		// Alltoall: rank i sends block (i<<4)|j to rank j.
		buf := make([]byte, n)
		for j := 0; j < n; j++ {
			buf[j] = byte(id<<4 | j)
		}
		out := r.Alltoall(buf, 1)
		for i := 0; i < n; i++ {
			if out[i] != byte(i<<4|id) {
				panic("Alltoall block mismatch")
			}
		}
		// Allreduce Max and Sum over rank-dependent vectors.
		vec := []float64{float64(id), -float64(id)}
		mx := r.Allreduce(vec, OpMax)
		if mx[0] != float64(n-1) || mx[1] != 0 {
			panic("Allreduce max wrong")
		}
		sum := r.Allreduce(vec, OpSum)
		want := float64(n*(n-1)) / 2
		if math.Abs(sum[0]-want) > 1e-9 || math.Abs(sum[1]+want) > 1e-9 {
			panic("Allreduce sum wrong")
		}
		// Bcast from a non-leader root.
		payload := make([]byte, 5)
		if id == 5 {
			copy(payload, "hello")
		}
		got = r.Bcast(5, payload)
		if string(got[:5]) != "hello" {
			panic("Bcast payload mismatch")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRackMonotoneInNodes is a sanity property of the fabric model: the
// same collective over more nodes (same total work per rank) costs more
// virtual time.
func TestRackMonotoneInNodes(t *testing.T) {
	var prev vclock.Time
	for _, nodes := range []int{2, 4, 8, 16} {
		cfg := Config{Ranks: RackPlacement(machine.Host, nodes, 4, 1), Fabric: machine.NewRackFabric(nodes)}
		tm, err := CollectiveTime(cfg, AllreduceKind, 64, 1)
		if err != nil {
			t.Fatal(err)
		}
		if tm <= prev {
			t.Errorf("Allreduce at %d nodes = %v, not above %v", nodes, tm, prev)
		}
		prev = tm
	}
}

package simmpi

import (
	"fmt"
	"os"

	"maia/internal/simtrace"
	"maia/internal/vclock"
)

// The replay prices communication scripts (SeqStep) in closed form: no
// rank goroutines, no message queues, just the goroutine engine's
// send/recv float recurrences stepped over a REPRESENTATIVE CLOCK
// VECTOR. The state is t[0..width) clocks, each standing for `scale`
// ranks whose clocks are provably equal at every point of the program:
//
//   - uniform flat world: one clock stands for all n ranks. In a world
//     of identical placements running a symmetric round (every rank
//     sends and receives the same byte count to a partner) all clocks
//     are equal at every round boundary, so each round is one O(1)
//     exchange;
//   - rack world: one node's perNode clocks stand for all nodes. With
//     identical nodes every hierarchical phase is symmetric per LOCAL
//     rank index — intra-node phases run the same local program on
//     every node, and inter-node leader rounds pair each leader with a
//     partner at the same hop distance — so ~17k-rank worlds price in
//     microseconds;
//   - non-uniform flat world: n clocks, each standing for itself.
//     Homogeneity still fixes every pair's transfer cost, so binomial
//     trees, wavefront rounds, per-rank compute and per-rank payloads
//     replay exactly in dependency order.
//
// A flat replay starts uniform and expands to the full vector once, at
// the first step that breaks uniformity (Bcast, the non-power-of-two
// Allreduce, a pipeline round, ComputePer, BytesPer). Messages match
// per (src, tag) FIFO in program order, so visiting ranks in dependency
// order — a tree parent before its children, reduce children before
// their parent, all sends of a round before its receives, a pipeline's
// upstream rank before its downstream one — reproduces every rank's clock
// bit for bit: float additions happen in the goroutine run's order, so
// the result is identical, not just close.
//
// The replay refuses (the goroutine engine runs instead) under an
// injecting fault plan, on worlds of fewer than two ranks, on
// heterogeneous flat placements, on racks whose nodes differ, for steps
// that break the rack's per-index symmetry, and under the
// MAIA_NO_FASTPATH escape hatch.

// noFastPathEnv force-disables the replay process-wide (the same knob
// memsim honors).
var noFastPathEnv = os.Getenv("MAIA_NO_FASTPATH") != ""

// symmetric reports whether every rank has the same placement.
func (w *World) symmetric() bool {
	l0 := w.cfg.Ranks[0]
	for _, l := range w.cfg.Ranks[1:] {
		if l != l0 {
			return false
		}
	}
	return true
}

// replayable reports whether the world may replay at all: the escape
// hatch is off, no fault is injected (a plan that injects nothing IS
// the healthy machine), there are at least two ranks, and a
// representative clock vector can stand for them — every rank placed
// alike on a flat world, identical nodes on a rack world.
func (w *World) replayable() bool {
	if noFastPathEnv || w.cfg.Faults.Enabled() || w.size < 2 {
		return false
	}
	if w.rack == nil {
		return w.symmetric()
	}
	R := w.rack.perNode
	for i, l := range w.cfg.Ranks {
		l0 := w.cfg.Ranks[i%R]
		if l.Device != l0.Device || l.ThreadsPerCore != l0.ThreadsPerCore {
			return false
		}
	}
	return true
}

// stepReplayable reports whether one script step stays within the
// replay's reach on this (replayable) world.
func (w *World) stepReplayable(st SeqStep) bool {
	if rk := w.rack; rk != nil {
		R := rk.perNode
		if st.BytesPer != nil || (st.ComputePer != nil && R%len(st.ComputePer) != 0) {
			return false // per-rank shapes would differ across nodes
		}
		switch st.Kind {
		case ComputeStep, AllreduceKind, AlltoallKind:
			return true
		case PairKind:
			// id^1 pairs stay intra-node when R is even; with one rank
			// per node they are uniform one-hop leader exchanges. Odd
			// R > 1 mixes intra- and inter-node pairs.
			return R == 1 || R%2 == 0
		default:
			// Bcast and Allgather run their flat algorithms, which
			// are not symmetric per local index, and the
			// node-boundary exchanges of a ring or a pipeline cross
			// varying hop counts.
			return false
		}
	}
	switch st.Kind {
	case ComputeStep, BcastKind, AllreduceKind, AllgatherKind, AlltoallKind, RingKind, PipelineKind:
		return true
	case PairKind:
		return w.size%2 == 0
	default:
		return false
	}
}

// replay is the representative clock vector.
type replay struct {
	w *World
	// t[j] is representative j's clock.
	t []vclock.Time
	// post[x] records the post time of the in-flight send addressed to
	// representative x (or, in reduce, the single upward send OF x).
	// Every pattern has at most one outstanding message per slot.
	post []vclock.Time
	// scale is how many ranks each clock stands for.
	scale int64
	// msgs/bytes count the representatives' traffic; times scale it is
	// the whole world's.
	msgs, bytes int64
	// last caches the latest flat transfer cost (see cost).
	last pairCost
}

// pairCost is one transferCost result for an n-byte message.
type pairCost struct {
	n                int
	sendSide, flight vclock.Time
	rendezvous       bool
}

// newReplay returns the world's starting state: one uniform clock on a
// flat world, one node's clocks on a rack world.
func newReplay(w *World) *replay {
	if rk := w.rack; rk != nil {
		return &replay{w: w, t: make([]vclock.Time, rk.perNode),
			post: make([]vclock.Time, rk.perNode), scale: int64(rk.nodes), last: pairCost{n: -1}}
	}
	return &replay{w: w, t: make([]vclock.Time, 1), scale: int64(w.size), last: pairCost{n: -1}}
}

// expand turns a uniform flat state into the full clock vector, one
// clock per rank; the traffic counted so far becomes the world's.
func (s *replay) expand() {
	n := s.w.size
	if len(s.t) == n {
		return
	}
	t := make([]vclock.Time, n)
	for j := range t {
		t[j] = s.t[0]
	}
	s.t, s.post = t, make([]vclock.Time, n)
	s.msgs *= s.scale
	s.bytes *= s.scale
	s.scale = 1
}

// cost prices an n-byte message from representative src to dst. Every
// pair of a replayable flat world is placed alike and costs the same,
// so there the latest size's transferCost is reused: a vector round
// prices one size for every rank.
func (s *replay) cost(src, dst, n int) pairCost {
	if s.last.n == n {
		return s.last
	}
	return s.price(src, dst, n)
}

// price is cost's lookup; it remembers the result on a flat world.
func (s *replay) price(src, dst, n int) pairCost {
	c := pairCost{n: n}
	c.sendSide, c.flight, c.rendezvous = s.w.transferCost(src, dst, n)
	if s.w.rack == nil {
		s.last = c
	}
	return c
}

// send mirrors Rank.send on representative src for a message priced c
// (cost(src, dst, n)): advances the sender by the send-side cost and
// returns the post time. send and recv take the priced message rather
// than pricing it, which keeps them small enough to inline into the
// traversals.
func (s *replay) send(src int, c pairCost) vclock.Time {
	tsPost := s.t[src]
	s.t[src] += c.sendSide
	s.msgs++
	s.bytes += int64(c.n)
	return tsPost
}

// recv mirrors Rank.recv on representative dst for a message priced c
// (cost(src, dst, n)) that its sender posted at tsPost.
func (s *replay) recv(dst int, c pairCost, tsPost vclock.Time) {
	start := tsPost
	if c.rendezvous {
		start = vclock.Max(tsPost, s.t[dst])
	}
	if done := start + c.flight; done > s.t[dst] {
		s.t[dst] = done
	}
}

// exchange prices one symmetric round on clock i: post n bytes to
// partner, then receive the n bytes the partner — whose clock equals
// i's — posted at the same instant. It is send then recv with one
// cost lookup.
func (s *replay) exchange(i, partner, n int) {
	tsPost := s.t[i]
	c := s.cost(i, partner, n)
	s.t[i] += c.sendSide
	start := tsPost
	if c.rendezvous {
		start = vclock.Max(tsPost, s.t[i])
	}
	if done := start + c.flight; done > s.t[i] {
		s.t[i] = done
	}
	s.msgs++
	s.bytes += int64(n)
}

// round replays one symmetric round: representative j sends to j^xor
// (xor > 0) or j+shift, then receives from its partner j^xor or
// j-shift. per, when non-nil, gives rank j a per[j%len]-byte payload
// instead of n. A one-clock state is one O(1) exchange.
func (s *replay) round(xor, shift, n int, per []int) {
	if per != nil {
		s.expand()
	}
	N := len(s.t)
	if N == 1 {
		s.exchange(0, xor+shift, n)
		return
	}
	for j := 0; j < N; j++ {
		dst := (j + shift) % N
		if xor != 0 {
			dst = j ^ xor
		}
		s.post[j] = s.send(j, s.cost(j, dst, stepRankBytes(j, n, per)))
	}
	for j := 0; j < N; j++ {
		src := (j - shift + N) % N
		if xor != 0 {
			src = j ^ xor
		}
		s.recv(j, s.cost(src, j, stepRankBytes(src, n, per)), s.post[src])
	}
}

// pipeline replays one wavefront round (PipelineKind) on the full clock
// vector: rank clocks are not equal during the pipeline's fill, but a
// round's receive on rank i depends only on rank i-1's send of the same
// round and on rank i's own earlier operations, so a rank-ascending
// traversal of each round visits every operation after its
// dependencies.
func (s *replay) pipeline(st SeqStep) {
	s.expand()
	n, nb := len(s.t), st.Bytes
	for id := 0; id < n; id++ {
		if id > 0 {
			s.recv(id, s.cost(id-1, id, nb), s.post[id])
		}
		if c := stepCompute(id, st.Compute, st.ComputePer); c > 0 {
			s.t[id] += c
		}
		if id < n-1 {
			s.post[id+1] = s.send(id, s.cost(id, id+1, nb))
		}
	}
}

// compute charges a step's compute. A ComputePer that the current
// representatives cannot stand for (its length does not divide theirs)
// expands a flat state first.
func (s *replay) compute(st SeqStep) {
	if per := st.ComputePer; per != nil {
		if s.scale > 1 && len(s.t)%len(per) != 0 {
			s.expand()
		}
		for j := range s.t {
			if c := per[j%len(per)]; c > 0 {
				s.t[j] += c
			}
		}
	} else if st.Compute > 0 {
		for j := range s.t {
			s.t[j] += st.Compute
		}
	}
}

// The group algorithms run on members 0..m-1 rooted at member 0: the
// whole flat world (m = size) or the representative node (m = perNode).

// bcast replays the binomial broadcast of n bytes. Members are visited
// in ascending order: a member's parent (j - lowbit(j)) precedes it,
// and each member's receive-then-send program order is kept.
func (s *replay) bcast(m, n int) {
	for j := 0; j < m; j++ {
		var mask int
		if j != 0 {
			mask = j & -j
			s.recv(j, s.cost(j-mask, j, n), s.post[j])
			mask >>= 1
		} else {
			mask = 1
			for mask < m {
				mask <<= 1
			}
			mask >>= 1
		}
		for ; mask > 0; mask >>= 1 {
			if j+mask < m {
				s.post[j+mask] = s.send(j, s.cost(j, j+mask, n))
			}
		}
	}
}

// reduce replays the binomial reduce of n bytes. Members are visited in
// descending order: a member's children (j + mask) precede it, so their
// upward send times are recorded before j consumes them.
func (s *replay) reduce(m, n int) {
	for j := m - 1; j >= 0; j-- {
		for mask := 1; mask < m; mask <<= 1 {
			if j&mask != 0 {
				s.post[j] = s.send(j, s.cost(j, j-mask, n))
				break
			}
			if j+mask < m {
				s.recv(j, s.cost(j+mask, j, n), s.post[j+mask])
			}
		}
	}
}

// scatter replays the linear scatter of n-byte blocks: the root posts
// its sends in ascending order, then each member receives.
func (s *replay) scatter(m, n int) {
	for j := 1; j < m; j++ {
		s.post[j] = s.send(0, s.cost(0, j, n))
	}
	for j := 1; j < m; j++ {
		s.recv(j, s.cost(0, j, n), s.post[j])
	}
}

// gather replays the linear gather of n-byte blocks: every member posts
// its send, then the root receives in ascending source order.
func (s *replay) gather(m, n int) {
	for j := 1; j < m; j++ {
		s.post[j] = s.send(j, s.cost(j, 0, n))
	}
	for j := 1; j < m; j++ {
		s.recv(0, s.cost(j, 0, n), s.post[j])
	}
}

// allreduceBytes is the wire size of an n-byte Allreduce: whole float64
// elements, at least one.
func allreduceBytes(n int) int {
	if n < 8 {
		return 8
	}
	return 8 * (n / 8)
}

// flatStep replays one script step on a flat world, mirroring the
// algorithm selection of collectives.go, and returns the algorithm.
func (s *replay) flatStep(st SeqStep) string {
	if st.Kind == PipelineKind {
		s.pipeline(st) // charges the compute between receive and send
		return "pipeline"
	}
	s.compute(st)
	n := s.w.size
	switch st.Kind {
	case PairKind:
		s.round(1, 0, st.Bytes, st.BytesPer)
		return "pair"
	case RingKind:
		s.round(0, seqShift(st, n), st.Bytes, st.BytesPer)
		return "ring"
	case BcastKind:
		s.expand()
		s.bcast(n, st.Bytes)
		return "binomial"
	case AllreduceKind:
		nb := allreduceBytes(st.Bytes)
		if n&(n-1) == 0 {
			for mask := 1; mask < n; mask <<= 1 {
				s.round(mask, 0, nb, nil)
			}
			return "rd"
		}
		s.expand()
		s.reduce(n, nb)
		s.bcast(n, nb)
		return "reduce+bcast"
	case AllgatherKind:
		m := st.Bytes
		if n&(n-1) == 0 && m <= s.w.cfg.AllgatherSwitchBytes {
			for mask := 1; mask < n; mask <<= 1 {
				s.round(mask, 0, mask*m, nil)
			}
			return "rd"
		}
		for step := 0; step < n-1; step++ {
			s.round(0, 1, m, nil)
		}
		return "ring"
	case AlltoallKind:
		for step := 1; step < n; step++ {
			s.round(0, step, st.Bytes, nil)
		}
		return "pairwise"
	default:
		return "compute"
	}
}

// rackStep replays one script step on a rack world, mirroring the
// phase structure of hier.go: clock 0 is the node leader, and a leader
// round with the node mask hops away is exchange(0, mask*perNode, ·).
func (s *replay) rackStep(st SeqStep) string {
	s.compute(st)
	R, N := s.w.rack.perNode, s.w.rack.nodes
	switch st.Kind {
	case PairKind:
		// Intra-node pairs for even R; one-hop leader pairs for R == 1.
		s.round(1, 0, st.Bytes, nil)
		return "pair"
	case AllreduceKind:
		nb := allreduceBytes(st.Bytes)
		s.reduce(R, nb)
		for mask := 1; mask < N; mask <<= 1 {
			s.exchange(0, mask*R, nb)
		}
		s.bcast(R, nb)
		return "hier:rd"
	case AlltoallKind:
		m := st.Bytes
		full := N * R * m
		s.gather(R, full)
		for step := 1; step < N; step++ {
			s.exchange(0, step*R, R*R*m)
		}
		s.scatter(R, full)
		return "hier:pairwise"
	default:
		return "compute"
	}
}

// makespan returns the latest representative clock — the world's
// MaxTime.
func (s *replay) makespan() vclock.Time { return vclock.MaxOf(s.t...) }

// trace records the replayed batch as one aggregated span plus the
// world-wide message/byte counters a full run would have accumulated.
func (s *replay) trace(name string) {
	tr := s.w.cfg.Tracer
	track := s.w.cfg.TraceLabel
	if track == "" {
		track = "repeat"
	}
	tr.Span(track, simtrace.CatMPI, name, 0, s.makespan(), s.bytes*s.scale)
	tr.Count(simtrace.CatMPI, "messages", s.msgs*s.scale)
	tr.Count(simtrace.CatMPI, "bytes", s.bytes*s.scale)
}

// RepeatSeq prices iters runs of a script in closed form and returns
// the makespan. ok is false when the world or any step refuses the
// replay and the goroutine engine (RunSeq) is needed.
//
// The replay does not populate per-rank profiles or final clocks;
// callers use the returned time. With a tracer attached it emits one
// aggregated span for the whole batch ("op[algo] xN" for a one-op
// script, "seq xN" otherwise) instead of per-operation spans.
func (w *World) RepeatSeq(steps []SeqStep, iters int) (vclock.Time, bool) {
	if !w.replayable() {
		return 0, false
	}
	for _, st := range steps {
		if !w.stepReplayable(st) {
			return 0, false
		}
	}
	s := newReplay(w)
	algo := ""
	for i := 0; i < iters; i++ {
		for _, st := range steps {
			if w.rack != nil {
				algo = s.rackStep(st)
			} else {
				algo = s.flatStep(st)
			}
		}
	}
	if w.cfg.Tracer != nil {
		name := fmt.Sprintf("seq x%d", iters)
		if len(steps) == 1 && steps[0].Kind != ComputeStep {
			name = fmt.Sprintf("%s[%s] x%d", steps[0].Kind, algo, iters)
		}
		s.trace(name)
	}
	return s.makespan(), true
}

// RepeatOp prices iters identical back-to-back collectives of the given
// per-rank message size: the one-step script {Kind: kind, Bytes:
// msgBytes} under RepeatSeq's rules.
func (w *World) RepeatOp(kind CollectiveKind, msgBytes, iters int) (vclock.Time, bool) {
	return w.RepeatSeq([]SeqStep{{Kind: kind, Bytes: msgBytes}}, iters)
}

package simmpi

import (
	"fmt"

	"maia/internal/simtrace"
)

// Reserved internal tags (user tags are non-negative).
const (
	tagBarrier = -2 - iota
	tagBcast
	tagReduce
	tagAllreduce
	tagAllgatherRD
	tagAllgatherRing
	tagAlltoall
	tagGather
	tagScatter
	// Hierarchical-collective phases (hier.go): up-funnel to the node
	// leader, leader-to-leader inter-node traffic, down-distribution.
	tagHierUp
	tagHierInter
	tagHierDown
)

// Op combines src into dst element-wise (dst = op(dst, src)). All
// collectives apply ops in a fixed tree order, so floating-point results
// are deterministic.
type Op func(dst, src []float64)

// OpSum adds src into dst.
func OpSum(dst, src []float64) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// OpMax keeps the element-wise maximum in dst.
func OpMax(dst, src []float64) {
	for i := range dst {
		if src[i] > dst[i] {
			dst[i] = src[i]
		}
	}
}

// OpMin keeps the element-wise minimum in dst.
func OpMin(dst, src []float64) {
	for i := range dst {
		if src[i] < dst[i] {
			dst[i] = src[i]
		}
	}
}

// Barrier synchronizes all ranks with the dissemination algorithm:
// ceil(log2 n) rounds of zero-byte exchanges.
func (r *Rank) barrierImpl() {
	n := r.w.size
	r.setAlgo("dissemination")
	if n == 1 {
		return
	}
	for step := 1; step < n; step <<= 1 {
		dst := (r.id + step) % n
		src := (r.id - step + n) % n
		r.send(dst, tagBarrier, payload{})
		r.recv(src, tagBarrier)
	}
}

// Bcast broadcasts root's buffer to every rank and returns each rank's
// copy. As in MPI, every rank passes a buffer of the same length (the
// "count" argument of MPI_Bcast); only root's contents matter. Short
// messages take the binomial tree (log n latency steps); long messages
// take the van de Geijn scatter-plus-ring-allgather, which moves only
// ~2x the message per rank — the algorithm real MPI libraries switch to
// for payloads like Cart3D's 56 MB broadcasts (Section 6.4.2).
func (r *Rank) bcastImpl(root int, data payload) payload {
	n := r.w.size
	if root < 0 || root >= n {
		panic(fmt.Sprintf("simmpi: Bcast root %d out of range", root))
	}
	if n == 1 {
		return data
	}
	if r.w.rack != nil {
		return r.hierBcast(root, data)
	}
	if data.n > r.w.cfg.BcastLongBytes && n > 2 {
		r.setAlgo("vandegeijn")
		return r.bcastVanDeGeijn(root, data)
	}
	r.setAlgo("binomial")
	return r.bcastBinomial(root, data)
}

// bcastBinomial is MPICH's classic binomial-tree broadcast.
func (r *Rank) bcastBinomial(root int, data payload) payload {
	n := r.w.size
	rel := (r.id - root + n) % n
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			src := (r.id - mask + n) % n
			data = r.recv(src, tagBcast)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < n {
			dst := (r.id + mask) % n
			r.send(dst, tagBcast, data)
		}
		mask >>= 1
	}
	return data
}

// bcastVanDeGeijn scatters the message down the binomial tree in blocks,
// then ring-allgathers the blocks. Each rank moves O(2m) bytes instead
// of the binomial tree's O(m log n) on the critical path.
func (r *Rank) bcastVanDeGeijn(root int, data payload) payload {
	n := r.w.size
	block := (data.n + n - 1) / n
	padded := block * n
	// Root pads to a whole number of blocks (alloc zeroes the padding,
	// which travels through the scatter/allgather).
	var buf payload
	if r.id == root {
		buf = r.w.alloc(padded)
		buf.copyAt(0, data)
	}
	mine := r.scatterImpl(root, buf, block)
	// Scatter hands rank i block i, so the allgather reassembles the
	// message in rank order regardless of the root.
	full := r.allgatherImpl(mine)
	return full.sub(0, data.n)
}

// Reduce combines every rank's packed vector with op down a binomial
// tree and returns the result on root (an empty payload elsewhere).
// data is the rank's own contribution; its bytes, if any, are reduced
// in place.
func (r *Rank) reduceImpl(root int, data payload, op Op) payload {
	n := r.w.size
	if root < 0 || root >= n {
		panic(fmt.Sprintf("simmpi: Reduce root %d out of range", root))
	}
	r.setAlgo("binomial")
	acc := data
	rel := (r.id - root + n) % n
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			r.send((r.id-mask+n)%n, tagReduce, acc)
			return payload{}
		}
		if rel+mask < n {
			other := r.recv((r.id+mask)%n, tagReduce)
			if other.n != acc.n {
				panic(fmt.Sprintf("simmpi: Reduce length mismatch %d vs %d bytes", other.n, acc.n))
			}
			combine(op, acc, other)
		}
		mask <<= 1
	}
	return acc
}

// Allreduce combines every rank's packed vector with op and returns the
// result on every rank. Power-of-two worlds use recursive doubling;
// others fall back to Reduce-then-Bcast. data's bytes, if any, are
// reduced in place.
func (r *Rank) allreduceImpl(data payload, op Op) payload {
	n := r.w.size
	if n == 1 {
		return data
	}
	if r.w.rack != nil {
		return r.hierAllreduce(data, op)
	}
	if n&(n-1) == 0 {
		r.setAlgo("rd")
		acc := data
		for mask := 1; mask < n; mask <<= 1 {
			partner := r.id ^ mask
			r.send(partner, tagAllreduce, acc)
			other := r.recv(partner, tagAllreduce)
			if other.n != acc.n {
				panic(fmt.Sprintf("simmpi: Allreduce length mismatch %d vs %d bytes", other.n, acc.n))
			}
			// Fixed combine order regardless of partner side keeps the
			// result identical on every rank.
			if r.id < partner {
				combine(op, acc, other)
			} else {
				combine(op, other, acc)
				acc = other
			}
		}
		return acc
	}
	r.setAlgo("reduce+bcast")
	// Off the root only the length matters (Bcast replaces or ignores
	// the contents), so every rank broadcasts its own payload.
	if res := r.reduceImpl(0, data, op); r.id == 0 {
		data = res
	}
	return r.bcastImpl(0, data)
}

// Allgather concatenates every rank's block (all blocks must be the same
// size) in rank order on every rank. Small blocks on power-of-two worlds
// use recursive doubling; larger blocks (or non-power-of-two worlds) use
// the ring algorithm. The size switch is what produces the step in the
// paper's Figure 13 at 2–4 KB.
func (r *Rank) allgatherImpl(block payload) payload {
	if r.w.rack != nil {
		return r.hierAllgather(block)
	}
	n, m := r.w.size, block.n
	// Every block of out is overwritten below, so uninitialized bytes
	// are safe. Callers own the result.
	out := r.w.alloc(n * m)
	out.copyAt(r.id*m, block)
	if n == 1 {
		return out
	}
	pow2 := n&(n-1) == 0
	if pow2 && m <= r.w.cfg.AllgatherSwitchBytes {
		r.setAlgo("rd")
		// Recursive doubling: before round k (mask = 2^k) each rank
		// holds the contiguous mask-block run of its group; the round
		// swaps whole runs between partner groups.
		for mask := 1; mask < n; mask <<= 1 {
			partner := r.id ^ mask
			group := (r.id / mask) * mask
			pgroup := (partner / mask) * mask
			r.send(partner, tagAllgatherRD, out.sub(group*m, (group+mask)*m))
			incoming := r.recv(partner, tagAllgatherRD)
			out.copyAt(pgroup*m, incoming)
		}
		return out
	}
	// Ring: n-1 steps; at each step pass the block received previously.
	r.setAlgo("ring")
	right := (r.id + 1) % n
	left := (r.id - 1 + n) % n
	cur := r.id
	for step := 0; step < n-1; step++ {
		r.send(right, tagAllgatherRing, out.sub(cur*m, (cur+1)*m))
		cur = (cur - 1 + n) % n
		data := r.recv(left, tagAllgatherRing)
		out.copyAt(cur*m, data)
	}
	return out
}

// Alltoall sends block i of the input to rank i and returns the blocks
// received from every rank, in rank order. All blocks are blockBytes
// long; len(data) must be Size()*blockBytes. The pairwise-exchange
// algorithm runs n-1 communication rounds.
func (r *Rank) alltoallImpl(data payload, blockBytes int) payload {
	n, m := r.w.size, blockBytes
	if data.n != n*m {
		panic(fmt.Sprintf("simmpi: Alltoall buffer %d bytes, want %d", data.n, n*m))
	}
	if r.w.rack != nil {
		return r.hierAlltoall(data, m)
	}
	r.setAlgo("pairwise")
	out := r.w.alloc(n * m)
	out.copyAt(r.id*m, data.sub(r.id*m, (r.id+1)*m))
	for step := 1; step < n; step++ {
		dst := (r.id + step) % n
		src := (r.id - step + n) % n
		r.send(dst, tagAlltoall, data.sub(dst*m, (dst+1)*m))
		got := r.recv(src, tagAlltoall)
		out.copyAt(src*m, got)
	}
	return out
}

// Gather collects every rank's block on root (linear algorithm) and
// returns the concatenation there, nil elsewhere.
func (r *Rank) gatherImpl(root int, block payload) payload {
	n := r.w.size
	if root < 0 || root >= n {
		panic(fmt.Sprintf("simmpi: Gather root %d out of range", root))
	}
	r.setAlgo("linear")
	if r.id != root {
		r.send(root, tagGather, block)
		return payload{}
	}
	m := block.n
	out := r.w.alloc(n * m)
	out.copyAt(root*m, block)
	for src := 0; src < n; src++ {
		if src == root {
			continue
		}
		data := r.recv(src, tagGather)
		out.copyAt(src*m, data)
	}
	return out
}

// Scatter distributes root's buffer (Size() equal blocks) and returns
// each rank's block.
func (r *Rank) scatterImpl(root int, data payload, blockBytes int) payload {
	n, m := r.w.size, blockBytes
	if root < 0 || root >= n {
		panic(fmt.Sprintf("simmpi: Scatter root %d out of range", root))
	}
	r.setAlgo("linear")
	if r.id != root {
		return r.recv(root, tagScatter)
	}
	if data.n != n*m {
		panic(fmt.Sprintf("simmpi: Scatter buffer %d bytes, want %d", data.n, n*m))
	}
	for dst := 0; dst < n; dst++ {
		if dst != root {
			r.send(dst, tagScatter, data.sub(dst*m, (dst+1)*m))
		}
	}
	return data.sub(root*m, (root+1)*m).clone()
}

// AllreduceSum is shorthand for a one-element sum Allreduce.
func (r *Rank) AllreduceSum(x float64) float64 {
	return r.Allreduce([]float64{x}, OpSum)[0]
}

// --- Public collective entry points -----------------------------------
//
// Each wraps its implementation so the profiler attributes the whole
// operation (including its internal point-to-point traffic) to the MPI
// function, the way MPInside-style tools report. The byte-slice entry
// points convert to and from payloads here and nowhere else.

// Barrier synchronizes all ranks (dissemination algorithm).
func (r *Rank) Barrier() {
	r.collective("MPI_Barrier", 0, func() { r.barrierImpl() })
	r.tracer.Count(simtrace.CatMPI, "barriers", 1)
}

// Bcast broadcasts root's buffer; see bcastImpl for algorithm selection.
func (r *Rank) Bcast(root int, data []byte) []byte { return r.bcast(root, r.w.wrap(data)).bytes() }

func (r *Rank) bcast(root int, data payload) (out payload) {
	r.collective("MPI_Bcast", int64(data.n), func() { out = r.bcastImpl(root, data) })
	return out
}

// Reduce combines every rank's vector onto root and returns the result
// there (nil elsewhere). vec is not modified. A size-only world returns
// a zeroed vector of the right length.
func (r *Rank) Reduce(root int, vec []float64, op Op) (out []float64) {
	r.collective("MPI_Reduce", int64(8*len(vec)), func() {
		if res := r.reduceImpl(root, r.w.packF64(vec), op); r.id == root {
			out = unpackF64(res)
		}
	})
	return out
}

// Allreduce combines every rank's vector onto every rank. vec is not
// modified. A size-only world returns a zeroed vector of the right
// length.
func (r *Rank) Allreduce(vec []float64, op Op) []float64 {
	return unpackF64(r.allreduce(r.w.packF64(vec), op))
}

func (r *Rank) allreduce(data payload, op Op) (out payload) {
	r.collective("MPI_Allreduce", int64(data.n), func() { out = r.allreduceImpl(data, op) })
	return out
}

// Allgather concatenates every rank's equal-size block on every rank.
func (r *Rank) Allgather(block []byte) []byte { return r.allgather(r.w.wrap(block)).bytes() }

func (r *Rank) allgather(block payload) (out payload) {
	r.collective("MPI_Allgather", int64(block.n), func() { out = r.allgatherImpl(block) })
	return out
}

// Alltoall delivers block i of every rank's buffer to rank i.
func (r *Rank) Alltoall(data []byte, blockBytes int) []byte {
	return r.alltoall(r.w.wrap(data), blockBytes).bytes()
}

func (r *Rank) alltoall(data payload, blockBytes int) (out payload) {
	r.collective("MPI_Alltoall", int64(data.n), func() { out = r.alltoallImpl(data, blockBytes) })
	return out
}

// Gather collects every rank's block on root.
func (r *Rank) Gather(root int, block []byte) (out []byte) {
	r.collective("MPI_Gather", int64(len(block)), func() { out = r.gatherImpl(root, r.w.wrap(block)).bytes() })
	return out
}

// Scatter distributes root's buffer as equal blocks.
func (r *Rank) Scatter(root int, data []byte, blockBytes int) (out []byte) {
	r.collective("MPI_Scatter", int64(blockBytes), func() { out = r.scatterImpl(root, r.w.wrap(data), blockBytes).bytes() })
	return out
}

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
	// Root pads to a whole number of blocks (zeroed: the padding bytes
	// travel through the scatter/allgather, so keep them deterministic).
	var buf payload
	if r.id == root {
		buf = r.w.alloc(padded)
		buf.copyAt(0, data)
		clear(buf.sub(data.n, padded).b)
	}
	mine := r.scatterImpl(root, buf, block)
	buf.recycle()
	// Scatter hands rank i block i, so the allgather reassembles the
	// message in rank order regardless of the root.
	full := r.allgatherImpl(mine)
	mine.recycle()
	return full.sub(0, data.n)
}

// Reduce combines every rank's vector with op down a binomial tree and
// returns the result on root (nil elsewhere). vec is not modified.
func (r *Rank) reduceImpl(root int, vec []float64, op Op) []float64 {
	n := r.w.size
	if root < 0 || root >= n {
		panic(fmt.Sprintf("simmpi: Reduce root %d out of range", root))
	}
	r.setAlgo("binomial")
	acc := f64Pool.Get(len(vec))
	copy(acc, vec)
	rel := (r.id - root + n) % n
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			dst := (r.id - mask + n) % n
			pb := r.packF64(acc)
			r.send(dst, tagReduce, pb)
			pb.recycle()
			if rel == 0 {
				break
			}
			RecycleF64(acc)
			return nil
		}
		if rel+mask < n {
			src := (r.id + mask) % n
			rb := r.recv(src, tagReduce)
			other := r.unpackF64(rb)
			rb.recycle()
			if len(other) != len(acc) {
				panic(fmt.Sprintf("simmpi: Reduce length mismatch %d vs %d", len(other), len(acc)))
			}
			r.combine(op, acc, other)
			RecycleF64(other)
		}
		mask <<= 1
	}
	if rel == 0 {
		return acc
	}
	return nil
}

// Allreduce combines every rank's vector with op and returns the result
// on every rank. Power-of-two worlds use recursive doubling; others fall
// back to Reduce-then-Bcast. vec is not modified.
func (r *Rank) allreduceImpl(vec []float64, op Op) []float64 {
	n := r.w.size
	if n == 1 {
		out := f64Pool.Get(len(vec))
		copy(out, vec)
		return out
	}
	if r.w.rack != nil {
		return r.hierAllreduce(vec, op)
	}
	if n&(n-1) == 0 {
		r.setAlgo("rd")
		acc := f64Pool.Get(len(vec))
		copy(acc, vec)
		for mask := 1; mask < n; mask <<= 1 {
			partner := r.id ^ mask
			pb := r.packF64(acc)
			r.send(partner, tagAllreduce, pb)
			pb.recycle()
			rb := r.recv(partner, tagAllreduce)
			other := r.unpackF64(rb)
			rb.recycle()
			if len(other) != len(acc) {
				panic(fmt.Sprintf("simmpi: Allreduce length mismatch %d vs %d", len(other), len(acc)))
			}
			// Fixed combine order regardless of partner side keeps the
			// result identical on every rank.
			if r.id < partner {
				r.combine(op, acc, other)
				RecycleF64(other)
			} else {
				r.combine(op, other, acc)
				RecycleF64(acc)
				acc = other
			}
		}
		return acc
	}
	r.setAlgo("reduce+bcast")
	res := r.reduceImpl(0, vec, op)
	var buf payload
	if r.id == 0 {
		buf = r.packF64(res)
		RecycleF64(res)
	} else {
		// Only the length matters on non-root ranks (Bcast replaces or
		// ignores the contents), so uninitialized bytes are fine.
		buf = r.w.alloc(8 * len(vec))
	}
	out := r.bcastImpl(0, buf)
	result := r.unpackF64(out)
	out.recycle()
	return result
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
	// are safe. Callers own the result; Recycle returns it.
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
			incoming.recycle()
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
		data.recycle()
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
		got.recycle()
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
		data.recycle()
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
	in := f64Pool.Get(1)
	in[0] = x
	out := r.Allreduce(in, OpSum)
	v := out[0]
	RecycleF64(out)
	RecycleF64(in)
	return v
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

// Reduce combines every rank's vector onto root.
func (r *Rank) Reduce(root int, vec []float64, op Op) (out []float64) {
	r.collective("MPI_Reduce", int64(8*len(vec)), func() { out = r.reduceImpl(root, vec, op) })
	return out
}

// Allreduce combines every rank's vector onto every rank.
func (r *Rank) Allreduce(vec []float64, op Op) (out []float64) {
	r.collective("MPI_Allreduce", int64(8*len(vec)), func() { out = r.allreduceImpl(vec, op) })
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

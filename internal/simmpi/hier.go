package simmpi

// Hierarchical collectives for two-level rack worlds. When a fabric is
// attached and the placement is node-major over a power-of-two node
// count, Allreduce and Alltoall decompose into three phases:
//
//  1. intra-node: the node's ranks funnel their contribution to the
//     node leader (local rank 0) over the shared-memory transport;
//  2. inter-node: the leaders run the collective among themselves over
//     the hypercube fabric — recursive doubling or XOR-pairwise
//     exchange, both of which keep every round's hop count uniform
//     across nodes;
//  3. intra-node: the leader distributes the result back down.
//
// This is how real MPI libraries behave on fat-node clusters, and it is
// what makes the rack replay (replay.go) possible: in a world of
// identical nodes every phase is symmetric per LOCAL rank index, so one
// representative node's clock vector reproduces all ~17k ranks bit for
// bit. Bcast, Allgather and Gather keep their flat algorithms (their
// traffic still rides the fabric-priced links): the rack drivers
// (npb.RackRun, overflow.RackStepTime) price only pair exchanges,
// Allreduce and Alltoall.

// rackInfo marks a world as two-level: nodes x perNode ranks, node-major.
type rackInfo struct {
	nodes   int
	perNode int
}

// deriveRack detects the node-major layout: rank i on node i/perNode,
// equal per-node blocks, a power-of-two count of at least two nodes.
// Any other placement with a fabric attached stays flat (fabric-priced
// links, flat algorithms).
func deriveRack(cfg *Config) *rackInfo {
	if cfg.Fabric == nil {
		return nil
	}
	size := len(cfg.Ranks)
	nodes := cfg.Ranks[size-1].Node + 1
	if nodes < 2 || nodes&(nodes-1) != 0 || size%nodes != 0 {
		return nil
	}
	per := size / nodes
	for i, l := range cfg.Ranks {
		if l.Node != i/per {
			return nil
		}
	}
	return &rackInfo{nodes: nodes, perNode: per}
}

// rackNode and rackLocal decompose a rank id; leaderOf names a node's
// leader rank. Only valid when w.rack != nil.
func (r *Rank) rackNode() int         { return r.id / r.w.rack.perNode }
func (r *Rank) rackLocal() int        { return r.id % r.w.rack.perNode }
func (r *Rank) leaderOf(node int) int { return node * r.w.rack.perNode }

// hierAllreduce reduces to the node leaders (binomial over local
// indices), allreduces among the leaders by recursive doubling, and
// broadcasts back down each node. data's bytes, if any, are reduced in
// place.
func (r *Rank) hierAllreduce(data payload, op Op) payload {
	R, N := r.w.rack.perNode, r.w.rack.nodes
	k, j := r.rackNode(), r.rackLocal()
	acc := data
	// Phase 1: binomial reduce to the node leader (local root 0).
	if R > 1 {
		mask := 1
		for mask < R {
			if j&mask != 0 {
				r.send(r.id-mask, tagHierUp, acc)
				break
			}
			if j+mask < R {
				combine(op, acc, r.recv(r.id+mask, tagHierUp))
			}
			mask <<= 1
		}
	}
	// Phase 2: leaders allreduce across the cube.
	if j == 0 {
		r.setAlgo("hier:rd")
		for mask := 1; mask < N; mask <<= 1 {
			pk := k ^ mask
			r.send(r.leaderOf(pk), tagHierInter, acc)
			other := r.recv(r.leaderOf(pk), tagHierInter)
			// Fixed combine order by node id keeps every leader's
			// result identical (same rule as the flat rd).
			if k < pk {
				combine(op, acc, other)
			} else {
				combine(op, other, acc)
				acc = other
			}
		}
	}
	// Phase 3: binomial from the leader down the node.
	if R > 1 {
		mask := 1
		for mask < R {
			if j&mask != 0 {
				acc = r.recv(r.id-mask, tagHierDown)
				break
			}
			mask <<= 1
		}
		mask >>= 1
		for mask > 0 {
			if j+mask < R {
				r.send(r.id+mask, tagHierDown, acc)
			}
			mask >>= 1
		}
	}
	return acc
}

// hierAlltoall funnels each node's full send buffers to the leader,
// exchanges aggregated R*R-block bundles between node pairs in XOR
// order (step s costs popcount(s) hops uniformly), and scatters each rank's
// received row back down the node. The inter-node phase moves R-times
// fewer, R^2-times larger messages than the flat pairwise exchange.
func (r *Rank) hierAlltoall(data payload, blockBytes int) payload {
	R, N := r.w.rack.perNode, r.w.rack.nodes
	k, j := r.rackNode(), r.rackLocal()
	n, m := r.w.size, blockBytes
	r.setAlgo("hier:pairwise")
	// Phase 1: non-leaders ship their whole buffer to the leader.
	if j != 0 {
		r.send(r.leaderOf(k), tagHierUp, data)
		return r.recv(r.leaderOf(k), tagHierDown)
	}
	// Leader: agg[localSrc][globalDst] holds the node's outgoing blocks;
	// row returns localSrc's n*m-byte row.
	agg := data
	if R > 1 {
		agg = r.w.alloc(R * n * m)
		agg.copyAt(0, data)
		for src := 1; src < R; src++ {
			d := r.recv(r.id+src, tagHierUp)
			agg.copyAt(src*n*m, d)
		}
	}
	row := func(p payload, local int) payload { return p.sub(local*n*m, (local+1)*n*m) }
	// res[localDst][globalSrc] accumulates the node's incoming blocks.
	res := r.w.alloc(R * n * m)
	for jj := 0; jj < R; jj++ {
		for l := 0; l < R; l++ {
			src, dst := (k*R+jj)*m, (k*R+l)*m
			res.copyAt(l*n*m+src, row(agg, jj).sub(dst, dst+m))
		}
	}
	// Phase 2: aggregated pairwise exchange across the cube. The wire
	// order of a bundle is [localSrc][localDst] blocks of m bytes.
	for step := 1; step < N; step++ {
		peer := k ^ step
		sb := r.w.alloc(R * R * m)
		for jj := 0; jj < R; jj++ {
			for l := 0; l < R; l++ {
				dst := (peer*R + l) * m
				sb.copyAt((jj*R+l)*m, row(agg, jj).sub(dst, dst+m))
			}
		}
		r.send(r.leaderOf(peer), tagHierInter, sb)
		d := r.recv(r.leaderOf(peer), tagHierInter)
		for jj := 0; jj < R; jj++ {
			for l := 0; l < R; l++ {
				src := (peer*R + jj) * m
				res.copyAt(l*n*m+src, d.sub((jj*R+l)*m, (jj*R+l+1)*m))
			}
		}
	}
	// Phase 3: linear scatter of each local rank's result row.
	for l := 1; l < R; l++ {
		r.send(r.id+l, tagHierDown, row(res, l))
	}
	out := row(res, 0).clone()
	return out
}

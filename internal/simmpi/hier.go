package simmpi

// Hierarchical collectives for two-level rack worlds. When a fabric is
// attached and the placement is node-major, Bcast / Allreduce /
// Allgather / Alltoall decompose into three phases:
//
//  1. intra-node: the node's ranks funnel their contribution to the
//     node leader (local rank 0) over the shared-memory transport;
//  2. inter-node: the leaders run the collective among themselves over
//     the hypercube fabric — recursive doubling, a Gray-code ring
//     (every step is one cube hop), or XOR-pairwise exchange, all of
//     which keep every round's hop count uniform across nodes;
//  3. intra-node: the leader distributes the result back down.
//
// This is how real MPI libraries behave on fat-node clusters, and it is
// what makes the rack replay (replay.go) possible: in a world of
// identical nodes every phase is symmetric per LOCAL rank index, so one
// representative node's clock vector reproduces all ~17k ranks bit for
// bit. Barrier, Reduce, Gather, and Scatter keep their flat algorithms
// (their traffic still rides the fabric-priced links).

// rackInfo marks a world as two-level: nodes x perNode ranks, node-major.
type rackInfo struct {
	nodes   int
	perNode int
}

// deriveRack detects the node-major layout: rank i on node i/perNode,
// equal per-node blocks, at least two nodes. Any other placement with a
// fabric attached stays flat (fabric-priced links, flat algorithms).
func deriveRack(cfg *Config) *rackInfo {
	if cfg.Fabric == nil {
		return nil
	}
	size := len(cfg.Ranks)
	nodes := cfg.Ranks[size-1].Node + 1
	if nodes < 2 || size%nodes != 0 {
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

// Rack reports the world's two-level shape: (nodes, ranksPerNode, true)
// for a node-major fabric world, (0, 0, false) otherwise.
func (w *World) Rack() (nodes, perNode int, ok bool) {
	if w.rack == nil {
		return 0, 0, false
	}
	return w.rack.nodes, w.rack.perNode, true
}

// rackNode and rackLocal decompose a rank id; leaderOf names a node's
// leader rank. Only valid when w.rack != nil.
func (r *Rank) rackNode() int         { return r.id / r.w.rack.perNode }
func (r *Rank) rackLocal() int        { return r.id % r.w.rack.perNode }
func (r *Rank) leaderOf(node int) int { return node * r.w.rack.perNode }

// hierBcast is the two-level broadcast: root hands its payload to its
// node leader, the leaders run a binomial tree over the cube, and each
// leader runs a binomial tree down its node. Every rank but the root
// receives exactly once (the root's node rebroadcasts to the root too,
// keeping the local phase uniform).
func (r *Rank) hierBcast(root int, data payload) payload {
	R, N := r.w.rack.perNode, r.w.rack.nodes
	rootNode, rootLocal := root/R, root%R
	k, j := r.rackNode(), r.rackLocal()
	r.setAlgo("hier:binomial")
	// Phase 0: root -> its node leader.
	if rootLocal != 0 {
		if r.id == root {
			r.send(r.leaderOf(rootNode), tagHierUp, data)
		}
		if k == rootNode && j == 0 {
			data = r.recv(root, tagHierUp)
		}
	}
	// Phase 1: binomial over node leaders, rooted at rootNode.
	if j == 0 {
		rel := (k - rootNode + N) % N
		mask := 1
		for mask < N {
			if rel&mask != 0 {
				src := ((rel - mask) + rootNode) % N
				data = r.recv(r.leaderOf(src), tagHierInter)
				break
			}
			mask <<= 1
		}
		mask >>= 1
		for mask > 0 {
			if rel+mask < N {
				dst := ((rel + mask) + rootNode) % N
				r.send(r.leaderOf(dst), tagHierInter, data)
			}
			mask >>= 1
		}
	}
	// Phase 2: binomial from the leader down the node (local root 0).
	if R > 1 {
		mask := 1
		for mask < R {
			if j&mask != 0 {
				data = r.recv(r.id-mask, tagHierDown)
				break
			}
			mask <<= 1
		}
		mask >>= 1
		for mask > 0 {
			if j+mask < R {
				r.send(r.id+mask, tagHierDown, data)
			}
			mask >>= 1
		}
	}
	return data
}

// hierAllreduce reduces to the node leaders (binomial over local
// indices), allreduces among the leaders (recursive doubling on
// power-of-two node counts, reduce-then-bcast over the node tree
// otherwise), and broadcasts back down each node. data's bytes, if
// any, are reduced in place.
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
		if N&(N-1) == 0 {
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
		} else {
			r.setAlgo("hier:reduce+bcast")
			// Reduce up the node binomial tree to node 0's leader...
			mask := 1
			for mask < N {
				if k&mask != 0 {
					r.send(r.leaderOf(k-mask), tagHierInter, acc)
					break
				}
				if k+mask < N {
					combine(op, acc, r.recv(r.leaderOf(k+mask), tagHierInter))
				}
				mask <<= 1
			}
			// ...then binomial-bcast the result back to every leader.
			mask = 1
			for mask < N {
				if k&mask != 0 {
					acc = r.recv(r.leaderOf(k-mask), tagHierInter)
					break
				}
				mask <<= 1
			}
			mask >>= 1
			for mask > 0 {
				if k+mask < N {
					r.send(r.leaderOf(k+mask), tagHierInter, acc)
				}
				mask >>= 1
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

// hierAllgather gathers each node's blocks to its leader (linear), runs
// the allgather of node blocks among the leaders — recursive doubling
// while the node block fits the rd regime, otherwise a Gray-code ring
// whose every step is a single cube hop (plain ring on non-power-of-two
// node counts) — and broadcasts the assembled result down each node.
func (r *Rank) hierAllgather(block payload) payload {
	R, N := r.w.rack.perNode, r.w.rack.nodes
	k, j := r.rackNode(), r.rackLocal()
	n, m := r.w.size, block.n
	out := r.w.alloc(n * m)
	// Phase 1: linear gather to the leader.
	if R > 1 && j != 0 {
		r.send(r.leaderOf(k), tagHierUp, block)
	}
	if j == 0 {
		out.copyAt(r.id*m, block)
		for src := 1; src < R; src++ {
			d := r.recv(r.id+src, tagHierUp)
			out.copyAt((r.id+src)*m, d)
		}
	}
	// Phase 2: leaders exchange node blocks (R*m bytes each) across the
	// cube, assembling all n ranks' blocks in rank order.
	if j == 0 {
		nb := R * m
		switch {
		case N&(N-1) == 0 && nb <= r.w.cfg.AllgatherSwitchBytes:
			r.setAlgo("hier:rd")
			for mask := 1; mask < N; mask <<= 1 {
				pk := k ^ mask
				group := (k / mask) * mask
				pgroup := (pk / mask) * mask
				r.send(r.leaderOf(pk), tagHierInter, out.sub(group*nb, (group+mask)*nb))
				inc := r.recv(r.leaderOf(pk), tagHierInter)
				out.copyAt(pgroup*nb, inc)
			}
		case N&(N-1) == 0:
			// Gray-code ring: consecutive ring positions differ in one
			// address bit, so every step costs exactly one hop.
			r.setAlgo("hier:gray-ring")
			p := grayIndex(k)
			right := grayCode((p + 1) % N)
			left := grayCode((p - 1 + N) % N)
			cur := k
			for step := 0; step < N-1; step++ {
				r.send(r.leaderOf(right), tagHierInter, out.sub(cur*nb, (cur+1)*nb))
				cur = grayCode((p - step - 1 + N) % N)
				d := r.recv(r.leaderOf(left), tagHierInter)
				out.copyAt(cur*nb, d)
			}
		default:
			r.setAlgo("hier:ring")
			right := (k + 1) % N
			left := (k - 1 + N) % N
			cur := k
			for step := 0; step < N-1; step++ {
				r.send(r.leaderOf(right), tagHierInter, out.sub(cur*nb, (cur+1)*nb))
				cur = (cur - 1 + N) % N
				d := r.recv(r.leaderOf(left), tagHierInter)
				out.copyAt(cur*nb, d)
			}
		}
	}
	// Phase 3: binomial broadcast of the full result down the node.
	if R > 1 {
		mask := 1
		for mask < R {
			if j&mask != 0 {
				d := r.recv(r.id-mask, tagHierDown)
				out.copyAt(0, d)
				break
			}
			mask <<= 1
		}
		mask >>= 1
		for mask > 0 {
			if j+mask < R {
				r.send(r.id+mask, tagHierDown, out)
			}
			mask >>= 1
		}
	}
	return out
}

// hierAlltoall funnels each node's full send buffers to the leader,
// exchanges aggregated R*R-block bundles between node pairs (XOR
// ordering on power-of-two node counts — step s costs popcount(s) hops
// uniformly — shifted pairs otherwise), and scatters each rank's
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
		var dstNode, srcNode int
		if N&(N-1) == 0 {
			dstNode, srcNode = k^step, k^step
		} else {
			dstNode, srcNode = (k+step)%N, (k-step+N)%N
		}
		sb := r.w.alloc(R * R * m)
		for jj := 0; jj < R; jj++ {
			for l := 0; l < R; l++ {
				dst := (dstNode*R + l) * m
				sb.copyAt((jj*R+l)*m, row(agg, jj).sub(dst, dst+m))
			}
		}
		r.send(r.leaderOf(dstNode), tagHierInter, sb)
		d := r.recv(r.leaderOf(srcNode), tagHierInter)
		for jj := 0; jj < R; jj++ {
			for l := 0; l < R; l++ {
				src := (srcNode*R + jj) * m
				res.copyAt(l*n*m+src, d.sub((jj*R+l)*m, (jj*R+l+1)*m))
			}
		}
	}
	if R > 1 {
	}
	// Phase 3: linear scatter of each local rank's result row.
	for l := 1; l < R; l++ {
		r.send(r.id+l, tagHierDown, row(res, l))
	}
	out := row(res, 0).clone()
	return out
}

// grayCode returns the i-th binary-reflected Gray code; grayIndex is its
// inverse.
func grayCode(i int) int { return i ^ (i >> 1) }

func grayIndex(g int) int {
	i := 0
	for b := g; b != 0; b >>= 1 {
		i ^= b
	}
	return i
}

package simmpi

import (
	"fmt"

	"maia/internal/simtrace"
	"maia/internal/vclock"
)

// Nonblocking point-to-point operations. Send is already buffered (the
// MPI_Isend+internal-buffer semantics real codes rely on), so Isend is an
// alias that returns a completed request; Irecv posts a receive whose
// match is resolved at Wait, with the POST time (not the wait time)
// gating the rendezvous — which is exactly the overlap nonblocking
// receives buy on real machines.

// Request is a handle for a pending nonblocking operation.
type Request struct {
	rank *Rank
	// recv-side state; nil rank means already complete.
	src, tag int
	post     vclock.Time
	done     bool
	data     []byte
}

// Isend posts a buffered send and returns an already-complete request.
func (r *Rank) Isend(dst, tag int, data []byte) *Request {
	r.Send(dst, tag, data)
	return &Request{done: true}
}

// Irecv posts a receive. The returned request must be completed with
// Wait; the message may arrive (in virtual time) any time after this
// post.
func (r *Rank) Irecv(src, tag int) *Request {
	if src == r.id || src < 0 || src >= r.w.size {
		panic(fmt.Sprintf("simmpi: rank %d irecvs from invalid rank %d", r.id, src))
	}
	return &Request{rank: r, src: src, tag: tag, post: r.clock.Now()}
}

// Wait blocks until the request completes and returns the received
// payload (nil for sends).
func (req *Request) Wait() []byte {
	if req.done {
		return req.data
	}
	t0 := req.rank.clock.Now()
	p := req.rank.recvAt(req.src, req.tag, req.post)
	req.data = p.bytes()
	if !req.rank.inColl {
		req.rank.record("MPI_Wait", int64(p.n), req.rank.clock.Now()-t0)
		req.rank.traceOp("MPI_Wait", int64(p.n), t0)
	}
	req.done = true
	return req.data
}

// Waitall completes every request, returning the payloads in order.
func Waitall(reqs []*Request) [][]byte {
	out := make([][]byte, len(reqs))
	for i, req := range reqs {
		out[i] = req.Wait()
	}
	return out
}

// recvAt is recv with an explicit post time: the rendezvous (or eager
// arrival) is gated by when the receive was POSTED, so computation
// between Irecv and Wait overlaps the transfer.
//
// On a faulted fabric the delivery runs under a virtual-time deadline:
// each seeded drop costs the timeout plus an exponentially growing
// backoff before the retransmission, and the (derated) successful
// flight lands after the accumulated penalty. Everything is charged to
// the receiver's virtual clock — wall-clock behavior is unchanged.
func (r *Rank) recvAt(src, tag int, post vclock.Time) payload {
	w := r.w
	box := w.boxes[r.id]
	box.mu.Lock()
	var msg message
	for {
		if box.poisoned {
			box.mu.Unlock()
			panic("world poisoned by a failed rank")
		}
		q := box.bySrc[src]
		found := -1
		for i, m := range q {
			if tag == AnyTag || m.tag == tag {
				found = i
				break
			}
		}
		if found >= 0 {
			msg = q[found]
			box.bySrc[src] = append(q[:found:found], q[found+1:]...)
			break
		}
		box.cond.Wait()
	}
	box.mu.Unlock()

	_, flight, rendezvous := w.transferCost(src, r.id, msg.data.n)
	start := msg.sendTime
	if rendezvous {
		start = vclock.Max(msg.sendTime, post)
	}
	if f := w.fabricFault(src, r.id); f != nil {
		flight = f.FlightTime(flight)
		if attempts := w.cfg.Faults.Attempts(*f, src, r.id, msg.seq); attempts > 1 {
			penalty := f.RetryPenalty(attempts)
			if r.tracer != nil {
				r.tracer.Span(r.track, simtrace.CatFault, "retry["+w.fabricName(src, r.id)+"]",
					start, start+penalty, int64(msg.data.n))
				r.tracer.Count(simtrace.CatFault, "mpi_retries", int64(attempts-1))
			}
			start += penalty
		}
	}
	done := start + flight
	r.clock.AdvanceTo(done)
	if r.tracer != nil {
		r.tracer.Span(r.track, simtrace.CatPCIe, w.fabricName(src, r.id), start, done, int64(msg.data.n))
	}
	return msg.data
}

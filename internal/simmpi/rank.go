package simmpi

import (
	"fmt"

	"maia/internal/machine"
	"maia/internal/simtrace"
	"maia/internal/vclock"
)

// AnyTag matches any message tag in Recv.
const AnyTag = -1

// Rank is the per-process handle passed to the body function of
// World.Run. All methods must be called only from that rank's goroutine.
type Rank struct {
	id    int
	w     *World
	clock vclock.Clock

	// Profiling state (see profile.go).
	prof   RankProfile
	inColl bool

	// sendSeq numbers this rank's sends in program order; together with
	// (src, dst) it identifies a message for the fault plan's seeded
	// drop decisions, independent of goroutine interleaving.
	sendSeq int

	// Tracing state: tracer is nil when tracing is off (every hook is
	// then a no-op); track is the precomputed tracer track name;
	// collAlgo is the algorithm chosen by the outermost running
	// collective, used to suffix its span name.
	tracer   *simtrace.Tracer
	track    string
	collAlgo string
}

// ID returns the rank number in [0, Size).
func (r *Rank) ID() int { return r.id }

// Size returns the world size.
func (r *Rank) Size() int { return r.w.size }

// Location returns the rank's placement.
func (r *Rank) Location() Location { return r.w.cfg.Ranks[r.id] }

// Device returns the device the rank runs on.
func (r *Rank) Device() machine.Device { return r.w.cfg.Ranks[r.id].Device }

// Now returns the rank's current virtual time.
func (r *Rank) Now() vclock.Time { return r.clock.Now() }

// Compute charges local computation time to the rank's clock. Under a
// fault plan the nominal duration is first degraded by the device's
// straggler factor and any thermal-throttle window the work falls into,
// so profiles and traces report the time the degraded machine actually
// spent.
func (r *Rank) Compute(t vclock.Time) {
	t0 := r.clock.Now()
	if plan := r.w.cfg.Faults; plan != nil {
		t = plan.ComputeTime(r.w.cfg.Ranks[r.id].Device, t0, t)
	}
	r.clock.Advance(t)
	r.prof.Compute += t
	if r.tracer != nil {
		r.tracer.Span(r.track, simtrace.CatCompute, "compute", t0, r.clock.Now(), 0)
	}
}

// Send posts a message to rank dst. It is buffered: the call charges only
// the sender-side injection cost and returns; delivery timing is settled
// when the receiver matches the message. Sending to oneself panics, as
// does an out-of-range destination.
func (r *Rank) Send(dst, tag int, data []byte) {
	if dst == r.id {
		panic(fmt.Sprintf("simmpi: rank %d sends to itself", r.id))
	}
	if dst < 0 || dst >= r.w.size {
		panic(fmt.Sprintf("simmpi: rank %d sends to invalid rank %d", r.id, dst))
	}
	if tag < 0 {
		panic(fmt.Sprintf("simmpi: negative user tag %d", tag))
	}
	r.send(dst, tag, r.w.wrap(data))
}

// send is the internal path shared with collectives (which use negative
// tags from the reserved space). The message owns a copy of the
// payload's bytes, if it has any, so the caller may reuse its buffer.
func (r *Rank) send(dst, tag int, p payload) {
	if !r.inColl {
		defer func(t0 vclock.Time) {
			r.record("MPI_Send", int64(p.n), r.clock.Now()-t0)
			r.traceOp("MPI_Send", int64(p.n), t0)
		}(r.clock.Now())
	}
	tsPost := r.clock.Now()
	sendSide, _, _ := r.w.transferCost(r.id, dst, p.n)
	r.clock.Advance(sendSide)
	if r.tracer != nil {
		r.tracer.Span(r.track, simtrace.CatCompute, "inject", tsPost, r.clock.Now(), int64(p.n))
		r.tracer.Count(simtrace.CatMPI, "messages", 1)
		r.tracer.Count(simtrace.CatMPI, "bytes", int64(p.n))
	}
	seq := r.sendSeq
	r.sendSeq++
	box := r.w.boxes[dst]
	box.mu.Lock()
	box.bySrc[r.id] = append(box.bySrc[r.id], message{tag: tag, data: p.clone(), sendTime: tsPost, seq: seq})
	box.cond.Signal()
	box.mu.Unlock()
}

// Recv blocks until a message from src with the given tag (or AnyTag)
// arrives, charges the receiver's clock, and returns the payload.
func (r *Rank) Recv(src, tag int) []byte {
	if src == r.id || src < 0 || src >= r.w.size {
		panic(fmt.Sprintf("simmpi: rank %d receives from invalid rank %d", r.id, src))
	}
	return r.recv(src, tag).bytes()
}

func (r *Rank) recv(src, tag int) payload {
	// A blocking receive is a nonblocking receive posted and completed
	// at the same instant.
	t0 := r.clock.Now()
	p := r.recvAt(src, tag, t0)
	if !r.inColl {
		r.record("MPI_Recv", int64(p.n), r.clock.Now()-t0)
		r.traceOp("MPI_Recv", int64(p.n), t0)
	}
	return p
}

// Sendrecv sends to dst and receives from src in one exchange (the shape
// of the paper's Figure 10 ring benchmark).
func (r *Rank) Sendrecv(dst, sendTag int, data []byte, src, recvTag int) []byte {
	r.Send(dst, sendTag, data)
	return r.Recv(src, recvTag)
}

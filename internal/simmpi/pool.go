package simmpi

import (
	"encoding/binary"
	"math"

	"maia/internal/bufpool"
)

// payload is a message body as the transport moves it: a length, plus
// the bytes themselves only in a content-preserving world. In a
// size-only world (Config.SizeOnlyPayloads) b stays nil, so no message,
// collective result or scratch block allocates bytes and host memory
// does not grow with the modeled message size. Every virtual time,
// profile and trace record derives from n alone, in both worlds.
//
// The helpers below are the only place that decides whether bytes
// exist; the collectives allocate, slice, copy and recycle payloads
// without asking.
type payload struct {
	n int
	b []byte
}

// payloadPool and f64Pool recycle the transport's transient buffers in
// content-preserving worlds: a send copies its payload into a pooled
// buffer, and the collectives return their receive-side scratch as soon
// as the bytes are copied out. Pooling is host-memory bookkeeping only —
// message lengths, matching order, and every virtual-time number are
// identical with the pool hot, cold, or collected.
var (
	payloadPool bufpool.Pool[byte]
	f64Pool     bufpool.Pool[float64]
)

// alloc returns an n-byte payload: pooled bytes with unspecified
// contents, or only the length in a size-only world.
func (w *World) alloc(n int) payload {
	if w.cfg.SizeOnlyPayloads {
		return payload{n: n}
	}
	return payload{n: n, b: payloadPool.Get(n)}
}

// wrap views a caller's buffer as a payload without copying; a
// size-only world keeps only its length.
func (w *World) wrap(data []byte) payload {
	if w.cfg.SizeOnlyPayloads {
		return payload{n: len(data)}
	}
	return payload{n: len(data), b: data}
}

// bytes hands a payload across the public API as an exact-length
// slice: its own bytes, or a pooled buffer with unspecified contents
// when it has none (nil for zero length).
func (p payload) bytes() []byte {
	if p.b == nil {
		return payloadPool.Get(p.n)
	}
	return p.b
}

// sub returns bytes [lo, hi) of p, sharing its storage.
func (p payload) sub(lo, hi int) payload {
	if p.b == nil {
		return payload{n: hi - lo}
	}
	return payload{n: hi - lo, b: p.b[lo:hi]}
}

// copyAt copies src into p at byte offset off: a no-op when either has
// no bytes.
func (p payload) copyAt(off int, src payload) {
	if p.b != nil && src.b != nil {
		copy(p.b[off:], src.b)
	}
}

// clone returns a payload the caller may not alias: a pooled copy of
// p's bytes, or p itself when it has none.
func (p payload) clone() payload {
	if p.b == nil {
		return p
	}
	c := payload{n: p.n, b: payloadPool.Get(p.n)}
	copy(c.b, p.b)
	return c
}

// recycle returns p's bytes, if any, to the free list; p must not be
// used afterwards.
func (p payload) recycle() { payloadPool.Put(p.b) }

// Recycle returns a payload buffer to the transport's free list. Use
// it on buffers whose lifetime has ended: a Recv/Sendrecv/Wait result
// after its contents are consumed, or a collective's returned buffer.
// Recycling is always optional (unrecycled buffers are simply garbage
// collected) and safe on nil or foreign slices, but the caller must
// not touch the slice afterwards.
func Recycle(buf []byte) { payloadPool.Put(buf) }

// RecycleF64 is Recycle for float64 buffers returned by Reduce,
// Allreduce, and friends.
func RecycleF64(vec []float64) { f64Pool.Put(vec) }

// packF64, unpackF64 and combine carry float64 vectors through the
// byte transport. A size-only world packs only the length, unpacks a
// pooled vector with unspecified contents, and skips the reduction
// arithmetic: no modeled time reads a value.
func (r *Rank) packF64(v []float64) payload {
	if r.w.cfg.SizeOnlyPayloads {
		return payload{n: 8 * len(v)}
	}
	b := f64ToBytes(v)
	return payload{n: len(b), b: b}
}

func (r *Rank) unpackF64(p payload) []float64 {
	if p.b == nil {
		return f64Pool.Get(p.n / 8)
	}
	return bytesToF64(p.b)
}

func (r *Rank) combine(op Op, dst, src []float64) {
	if !r.w.cfg.SizeOnlyPayloads {
		op(dst, src)
	}
}

// f64ToBytes and bytesToF64 move real float64 payloads through the byte
// transport. Both draw their output from the package free lists (the
// result is fully overwritten), so conversion scratch recycles through
// Recycle/RecycleF64 instead of churning the heap.
func f64ToBytes(v []float64) []byte {
	b := payloadPool.Get(8 * len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

func bytesToF64(b []byte) []float64 {
	v := f64Pool.Get(len(b) / 8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return v
}

package simmpi

import (
	"encoding/binary"
	"math"
	"slices"
)

// payload is a message body as the transport moves it: a length, plus
// the bytes themselves only in a content-preserving world. In a
// size-only world (Config.SizeOnlyPayloads) b stays nil, so no message,
// collective result, reduction or scratch block allocates bytes and
// host memory does not grow with the modeled message size. Every
// virtual time, profile and trace record derives from n alone, in both
// worlds.
//
// The helpers below are the only place that decides whether bytes
// exist; the collectives allocate, slice, copy and combine payloads
// without asking.
type payload struct {
	n int
	b []byte
}

// alloc returns an n-byte payload: zeroed bytes, or only the length in
// a size-only world.
func (w *World) alloc(n int) payload {
	if w.cfg.SizeOnlyPayloads {
		return payload{n: n}
	}
	return payload{n: n, b: make([]byte, n)}
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
// slice: its own bytes, or a zeroed buffer when it has none (nil for
// zero length).
func (p payload) bytes() []byte {
	if p.b == nil && p.n > 0 {
		return make([]byte, p.n)
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

// clone returns a payload the caller may not alias: a copy of p's
// bytes, or p itself when it has none.
func (p payload) clone() payload {
	if p.b == nil {
		return p
	}
	return payload{n: p.n, b: append([]byte(nil), p.b...)}
}

// AppendFloat64s appends v to b in the transport's float64 wire format,
// 8 little-endian bytes per value, and DecodeFloat64s reads it back:
// the one encoding programs use to move float64 data through the byte
// calls (Send, Recv, Bcast, Allgather, ...).
func AppendFloat64s(b []byte, v []float64) []byte {
	b = slices.Grow(b, 8*len(v))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// DecodeFloat64s returns the len(b)/8 values AppendFloat64s encoded in b.
func DecodeFloat64s(b []byte) []float64 {
	v := make([]float64, len(b)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return v
}

// packF64 and unpackF64 carry a float64 vector across the public
// Reduce/Allreduce boundary, the only place a reduction holds one: a
// size-only world packs only the length and unpacks a zeroed vector.
func (w *World) packF64(v []float64) payload {
	if w.cfg.SizeOnlyPayloads {
		return payload{n: 8 * len(v)}
	}
	return payload{n: 8 * len(v), b: AppendFloat64s(nil, v)}
}

func unpackF64(p payload) []float64 {
	if p.b == nil {
		return make([]float64, p.n/8)
	}
	return DecodeFloat64s(p.b)
}

// combine applies op to two packed vectors, writing dst = op(dst, src)
// into dst's bytes. It runs only when both sides carry bytes: no
// modeled time reads a reduced value.
func combine(op Op, dst, src payload) {
	if dst.b == nil || src.b == nil {
		return
	}
	d := unpackF64(dst)
	op(d, unpackF64(src))
	AppendFloat64s(dst.b[:0], d)
}

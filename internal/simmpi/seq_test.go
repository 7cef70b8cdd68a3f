package simmpi

import (
	"testing"

	"maia/internal/machine"
	"maia/internal/vclock"
)

// The FuzzSeqStep input layout: a 3-byte world header, then up to
// seqFuzzMaxSteps steps of seqFuzzStepBytes each (a trailing partial
// step is ignored).
//
//	header: ranks (1..8), placement, iterations (1..3)
//	step:   kind, bytes lo, bytes hi, compute µs, flags, aux
//
// placement bit 0 picks the Phi over the host, bits 1-2 the threads per
// core, bit 3 a mixed host/Phi world (the replay refuses it). Step kind
// is taken mod 9, so 8 is an unknown kind; bytes are taken mod 4097.
// Flag bit 0 sets ComputePer, bit 1 BytesPer (both 1+aux%8 entries
// derived from aux), bit 2 negates Bytes, bit 3 sets Shift = aux%10.
const (
	seqFuzzMaxRanks  = 8
	seqFuzzMaxSteps  = 8
	seqFuzzStepBytes = 6
)

// decodeSeqFuzz turns fuzz bytes into a small flat world and a script.
func decodeSeqFuzz(data []byte) (Config, []SeqStep, int, bool) {
	if len(data) < 3 {
		return Config{}, nil, 0, false
	}
	n := 1 + int(data[0])%seqFuzzMaxRanks
	place, iters := data[1], 1+int(data[2])%3
	tpc := 1 + int(place>>1)%2
	var ranks []Location
	switch {
	case place&8 != 0:
		ranks = append(HostPlacement(n/2, tpc), PhiPlacement(machine.Phi0, n-n/2, tpc)...)
	case place&1 != 0:
		ranks = PhiPlacement(machine.Phi0, n, 1+int(place>>1)%4)
	default:
		ranks = HostPlacement(n, tpc)
	}
	var steps []SeqStep
	for b := data[3:]; len(b) >= seqFuzzStepBytes && len(steps) < seqFuzzMaxSteps; b = b[seqFuzzStepBytes:] {
		flags, aux := b[4], int(b[5])
		st := SeqStep{
			Kind:    CollectiveKind(int(b[0]) % 9),
			Bytes:   (int(b[1]) | int(b[2])<<8) % 4097,
			Compute: vclock.Time(b[3]) * vclock.Microsecond,
		}
		if flags&1 != 0 {
			st.ComputePer = make([]vclock.Time, 1+aux%8)
			for i := range st.ComputePer {
				st.ComputePer[i] = vclock.Time((aux+7*i)%50) * vclock.Microsecond
			}
		}
		if flags&2 != 0 {
			st.BytesPer = make([]int, 1+aux%8)
			for i := range st.BytesPer {
				st.BytesPer[i] = (st.Bytes + 97*i*aux) % 4097
			}
		}
		if flags&4 != 0 {
			st.Bytes = -st.Bytes - 1
		}
		if flags&8 != 0 {
			st.Shift = aux % 10
		}
		steps = append(steps, st)
	}
	return Config{Ranks: ranks, SizeOnlyPayloads: true}, steps, iters, true
}

// FuzzSeqStep checks the two script engines against each other on
// small flat worlds: a script validateSeq accepts runs on the goroutine
// engine without error, and wherever the replay engages its total and
// its mpi/messages and mpi/bytes counters equal the goroutine run's.
func FuzzSeqStep(f *testing.F) {
	step := func(kind CollectiveKind, bytes, computeUS, flags, aux int) []byte {
		return []byte{byte(kind), byte(bytes), byte(bytes >> 8), byte(computeUS), byte(flags), byte(aux)}
	}
	seed := func(ranks, place, iters byte, steps ...[]byte) []byte {
		out := []byte{ranks, place, iters}
		for _, s := range steps {
			out = append(out, s...)
		}
		return out
	}
	for kind := BcastKind; kind <= PipelineKind; kind++ {
		f.Add(seed(3, 0, 1, step(kind, 1024, 5, 0, 0))) // 4 host ranks
		f.Add(seed(7, 1, 2, step(kind, 4000, 0, 0, 0))) // 8 Phi ranks
	}
	f.Add(seed(7, 0, 1, step(RingKind, 512, 3, 2|8, 3), step(PairKind, 256, 0, 2, 5)))        // BytesPer, Shift
	f.Add(seed(5, 3, 2, step(PipelineKind, 2048, 0, 1, 4), step(AllreduceKind, 64, 1, 0, 0))) // ComputePer
	f.Add(seed(4, 8, 1, step(AllgatherKind, 100, 2, 0, 0)))                                   // mixed world
	f.Add(seed(0, 0, 1, step(RingKind, 8, 0, 0, 0)))                                          // 1-rank ring: rejected
	f.Add(seed(2, 0, 1, step(PairKind, 8, 0, 0, 0)))                                          // odd pair: rejected
	f.Add(seed(3, 0, 1, step(BcastKind, 8, 0, 2, 0)))                                         // BytesPer on Bcast: rejected
	f.Add(seed(3, 0, 1, step(PipelineKind+1, 8, 0, 0, 0)))                                    // unknown kind: rejected
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, steps, iters, ok := decodeSeqFuzz(data)
		if !ok {
			return
		}
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if w.validateSeq(steps) != nil {
			if w.RunSeq(steps, iters) == nil {
				t.Fatalf("RunSeq ran a script validateSeq rejects: %+v", steps)
			}
			return
		}
		if err := w.RunSeq(steps, iters); err != nil {
			t.Fatalf("valid script failed on the goroutine engine: %v\n%+v", err, steps)
		}
		var total vclock.Time
		withFastPath(func() {
			rw, err := NewWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			total, ok = rw.RepeatSeq(steps, iters)
		})
		if ok && total != w.MaxTime() {
			t.Fatalf("replay %v, goroutine run %v (%d ranks, iters %d)\n%+v",
				total, w.MaxTime(), len(cfg.Ranks), iters, steps)
		}
		checkSeqCounters(t, cfg, steps, iters)
	})
}

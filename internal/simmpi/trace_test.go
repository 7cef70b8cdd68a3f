package simmpi

import (
	"strings"
	"testing"

	"maia/internal/machine"
	"maia/internal/simtrace"
	"maia/internal/vclock"
)

// A traced collective's spans agree with the world's reported virtual
// times: the latest span end equals the makespan CollectiveTime derives
// its answer from, and the per-rank MPI op spans carry the algorithm
// actually chosen.
func TestTraceCollectiveConsistency(t *testing.T) {
	tr := simtrace.New()
	cfg := Config{Ranks: HostPlacement(16, 1)}
	const iters = 2
	tt, err := CollectiveTime(cfg, AllgatherKind, 1024, iters, WithTracer(tr, "host16"))
	if err != nil {
		t.Fatal(err)
	}
	sum := tr.Summary()
	if got, want := sum.Horizon, tt*vclock.Time(iters); !closeTo(got, want) {
		t.Errorf("trace horizon %v, want makespan %v", got, want)
	}

	var mpi, pcie, compute, rd int
	for _, s := range tr.Spans() {
		if s.End < s.Start {
			t.Fatalf("span %q ends before it starts", s.Name)
		}
		switch s.Cat {
		case simtrace.CatMPI:
			mpi++
			if s.Name == "MPI_Allgather[rd]" {
				rd++
			}
		case simtrace.CatPCIe:
			pcie++
			if s.Name != "shm:host" {
				t.Errorf("host-only world produced flight fabric %q", s.Name)
			}
		case simtrace.CatCompute:
			compute++
		default:
			t.Errorf("unexpected category %q", s.Cat)
		}
		if !strings.HasPrefix(s.Track, "host16/rank") {
			t.Errorf("track %q lacks the TraceLabel prefix", s.Track)
		}
	}
	// 16 ranks x 2 iters outer op spans; 1 KB on 16 pow2 ranks is
	// recursive doubling (4 rounds): 64 messages per iter, each with an
	// inject (compute) and a flight (pcie) span.
	if rd != 16*iters {
		t.Errorf("%d MPI_Allgather[rd] spans, want %d", rd, 16*iters)
	}
	if mpi != 16*iters {
		t.Errorf("%d mpi spans, want %d", mpi, 16*iters)
	}
	if want := 16 * 4 * iters; pcie != want || compute != want {
		t.Errorf("pcie/compute spans %d/%d, want %d each", pcie, compute, want)
	}

	// Counters match the message count.
	var msgs, bytes int64
	for _, c := range tr.Counters() {
		switch c.Key {
		case simtrace.CounterKey{Cat: simtrace.CatMPI, Name: "messages"}:
			msgs = c.Value
		case simtrace.CounterKey{Cat: simtrace.CatMPI, Name: "bytes"}:
			bytes = c.Value
		}
	}
	if msgs != int64(16*4*iters) {
		t.Errorf("messages counter %d, want %d", msgs, 16*4*iters)
	}
	// Recursive doubling round k moves 2^k KB blocks: 1+2+4+8 KB per
	// rank per iter.
	if want := int64(16*iters) * 15 * 1024; bytes != want {
		t.Errorf("bytes counter %d, want %d", bytes, want)
	}
}

func closeTo(a, b vclock.Time) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-15*vclock.Time(1)+b*1e-9
}

// The ring algorithm (non-power-of-two world) names its spans [ring],
// and cross-fabric flights are named by the fabric they ride.
func TestTraceAlgorithmAndFabricNames(t *testing.T) {
	tr := simtrace.New()
	cfg := Config{Ranks: PhiPlacement(machine.Phi0, 6, 1)}
	if _, err := CollectiveTime(cfg, AllgatherKind, 256, 1, WithTracer(tr, "")); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range tr.Spans() {
		names[s.Name] = true
	}
	if !names["MPI_Allgather[ring]"] {
		t.Error("non-power-of-two allgather did not trace as [ring]")
	}
	if !names["shm:phi"] {
		t.Error("Phi-local flights not named shm:phi")
	}

	// Cross-device world: host rank 0, Phi0 rank 1.
	tr2 := simtrace.New()
	w, err := NewWorld(Config{Ranks: []Location{
		{Device: machine.Host, ThreadsPerCore: 1},
		{Device: machine.Phi0, ThreadsPerCore: 1},
	}}, WithTracer(tr2, ""))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 7, make([]byte, 4096))
		} else {
			r.Recv(0, 7)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range tr2.Spans() {
		if s.Cat == simtrace.CatPCIe && s.Name == "pcie:host-Phi0" {
			found = true
		}
	}
	if !found {
		t.Error("cross-device flight not named pcie:host-Phi0")
	}
}

// A world with tracing off behaves identically (same virtual times) and
// the rank clocks are unaffected by tracing on: the tracer observes,
// never perturbs.
func TestTracingDoesNotPerturbVirtualTime(t *testing.T) {
	run := func(tr *simtrace.Tracer) vclock.Time {
		cfg := Config{Ranks: PhiPlacement(machine.Phi0, 8, 2)}
		tt, err := CollectiveTime(cfg, AlltoallKind, 2048, 3, WithTracer(tr, ""))
		if err != nil {
			t.Fatal(err)
		}
		return tt
	}
	off := run(nil)
	on := run(simtrace.New())
	if off != on {
		t.Errorf("tracing changed virtual time: off %v, on %v", off, on)
	}
}

// The send path with tracing off must not allocate more than the
// untraced baseline: the hooks are nil-guarded. The eager-path
// allocations are the payload copy and mailbox bookkeeping; assert the
// tracing hooks add zero by comparing against the traced run's delta
// being entirely tracer-side.
func BenchmarkSendPathTracingOff(b *testing.B) {
	benchSendPath(b, nil)
}

// The traced counterpart, for comparing -benchmem numbers.
func BenchmarkSendPathTracingOn(b *testing.B) {
	benchSendPath(b, simtrace.New())
}

func benchSendPath(b *testing.B, tr *simtrace.Tracer) {
	b.ReportAllocs()
	payload := make([]byte, 1024)
	for i := 0; i < b.N; i++ {
		w, err := NewWorld(Config{Ranks: HostPlacement(2, 1)}, WithTracer(tr, ""))
		if err != nil {
			b.Fatal(err)
		}
		err = w.Run(func(r *Rank) {
			if r.ID() == 0 {
				for k := 0; k < 64; k++ {
					r.Send(1, 1, payload)
				}
			} else {
				for k := 0; k < 64; k++ {
					r.Recv(0, 1)
				}
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

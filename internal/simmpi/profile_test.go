package simmpi

import (
	"strings"
	"testing"

	"maia/internal/vclock"
)

func TestProfileAttribution(t *testing.T) {
	w, _ := NewWorld(hostCfg(4))
	err := w.Run(func(r *Rank) {
		r.Compute(2 * vclock.Millisecond)
		r.Allreduce([]float64{1}, OpSum)
		n := r.Size()
		r.Sendrecv((r.ID()+1)%n, 0, make([]byte, 1024), (r.ID()-1+n)%n, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range w.Profiles() {
		if p.Compute != 2*vclock.Millisecond {
			t.Fatalf("rank %d compute = %v", p.Rank, p.Compute)
		}
		for _, op := range []string{"MPI_Allreduce", "MPI_Send", "MPI_Recv"} {
			s, ok := p.MPI[op]
			if !ok || s.Calls == 0 {
				t.Fatalf("rank %d missing %s: %+v", p.Rank, op, p.MPI)
			}
		}
		// Collective-internal sends must NOT appear as MPI_Send: only the
		// one explicit Sendrecv pair.
		if p.MPI["MPI_Send"].Calls != 1 || p.MPI["MPI_Recv"].Calls != 1 {
			t.Fatalf("rank %d p2p calls = %+v (collective traffic leaked)", p.Rank, p.MPI)
		}
		if p.MPI["MPI_Send"].Bytes != 1024 {
			t.Fatalf("send bytes = %d", p.MPI["MPI_Send"].Bytes)
		}
	}
}

func TestProfileSummary(t *testing.T) {
	w, _ := NewWorld(hostCfg(4))
	err := w.Run(func(r *Rank) {
		// Rank 3 computes twice as long: imbalance 4*2/(3+3*1... ) mean=1.25ms.
		d := vclock.Millisecond
		if r.ID() == 3 {
			d *= 2
		}
		r.Compute(d)
		r.AllreduceSum(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	s := w.Summarize()
	if s.Ranks != 4 {
		t.Fatalf("ranks = %d", s.Ranks)
	}
	if s.MaxCompute != 2*vclock.Millisecond {
		t.Fatalf("max compute = %v", s.MaxCompute)
	}
	wantBalance := 2.0 / 1.25
	if s.ComputeBalance < wantBalance*0.99 || s.ComputeBalance > wantBalance*1.01 {
		t.Fatalf("balance = %v, want %v", s.ComputeBalance, wantBalance)
	}
	if s.MaxTotal < s.MaxCompute {
		t.Fatal("makespan below max compute")
	}
	if !strings.Contains(s.String(), "balance=1.60") {
		t.Fatalf("summary string: %s", s)
	}
}

func TestFormatProfile(t *testing.T) {
	w, _ := NewWorld(hostCfg(2))
	if err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, []byte{1, 2, 3})
		} else {
			r.Recv(0, 0)
		}
	}); err != nil {
		t.Fatal(err)
	}
	out := FormatProfile(w.Profiles()[0])
	if !strings.Contains(out, "MPI_Send") || !strings.Contains(out, "bytes=3") {
		t.Fatalf("FormatProfile output:\n%s", out)
	}
}

func TestSummarizeEmptyWorldSafe(t *testing.T) {
	w, _ := NewWorld(hostCfg(1))
	if err := w.Run(func(r *Rank) {}); err != nil {
		t.Fatal(err)
	}
	s := w.Summarize()
	if s.ComputeBalance != 1 {
		t.Fatalf("idle balance = %v", s.ComputeBalance)
	}
}

package workgroup

import (
	"sync/atomic"
	"testing"
)

func TestWaitRunsEveryFunctionWithinLimit(t *testing.T) {
	g := New(3)
	var running, peak, done atomic.Int32
	for i := 0; i < 20; i++ {
		g.Go(func() {
			n := running.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			running.Add(-1)
			done.Add(1)
		})
	}
	g.Wait()
	if done.Load() != 20 {
		t.Fatalf("%d of 20 functions ran", done.Load())
	}
	if peak.Load() > 3 {
		t.Fatalf("%d functions ran at once, limit 3", peak.Load())
	}
}

// A worker's panic re-raises on the waiting goroutine, after every
// other worker has finished.
func TestWaitRepanicsOnCaller(t *testing.T) {
	var done atomic.Int32
	defer func() {
		if p := recover(); p != "boom" {
			t.Fatalf("recovered %v, want boom", p)
		}
		if done.Load() != 7 {
			t.Fatalf("%d of 7 other workers finished before the re-panic", done.Load())
		}
	}()
	g := New(2)
	for i := 0; i < 8; i++ {
		g.Go(func() {
			if i == 3 {
				panic("boom")
			}
			done.Add(1)
		})
	}
	g.Wait()
	t.Fatal("Wait returned after a worker panicked")
}

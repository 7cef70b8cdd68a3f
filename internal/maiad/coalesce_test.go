package maiad

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// N concurrent callers of one key execute the function exactly once:
// the leader reports shared=false, every follower shares its value.
func TestGroupCoalesces(t *testing.T) {
	var g Group
	const n = 16
	var execs atomic.Int64
	var entered atomic.Int64
	release := make(chan struct{})

	type got struct {
		e      Entry
		shared bool
		err    error
	}
	results := make([]got, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			entered.Add(1)
			e, shared, err := g.Do("k", func() (Entry, error) {
				execs.Add(1)
				<-release
				return Entry{Output: []byte("payload")}, nil
			})
			results[i] = got{e, shared, err}
		}(i)
	}
	// Hold the leader until every goroutine has at least launched; the
	// brief settle gives the stragglers time to reach Do and park on
	// the leader's WaitGroup.
	for entered.Load() < n {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	if execs.Load() != 1 {
		t.Fatalf("fn executed %d times, want exactly 1", execs.Load())
	}
	leaders := 0
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("caller %d: %v", i, r.err)
		}
		if string(r.e.Output) != "payload" {
			t.Errorf("caller %d got %q", i, r.e.Output)
		}
		if !r.shared {
			leaders++
		}
	}
	if leaders != 1 {
		t.Errorf("%d leaders, want 1", leaders)
	}
	if len(g.m) != 0 {
		t.Errorf("%d keys still in flight after completion", len(g.m))
	}
}

// Followers share the leader's error too, and a completed key is
// forgotten — the next Do runs fresh.
func TestGroupSharesErrorsAndForgets(t *testing.T) {
	var g Group
	boom := errors.New("boom")
	if _, _, err := g.Do("k", func() (Entry, error) { return Entry{}, boom }); !errors.Is(err, boom) {
		t.Fatalf("leader error = %v", err)
	}
	calls := 0
	if _, shared, err := g.Do("k", func() (Entry, error) { calls++; return Entry{}, nil }); err != nil || shared {
		t.Fatalf("second Do: shared=%v err=%v", shared, err)
	}
	if calls != 1 {
		t.Fatalf("completed key was not forgotten (calls=%d)", calls)
	}
}

// Distinct keys never coalesce.
func TestGroupDistinctKeys(t *testing.T) {
	var g Group
	var execs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g.Do(string(rune('a'+i)), func() (Entry, error) {
				execs.Add(1)
				return Entry{}, nil
			})
		}(i)
	}
	wg.Wait()
	if execs.Load() != 4 {
		t.Errorf("distinct keys executed %d times, want 4", execs.Load())
	}
}

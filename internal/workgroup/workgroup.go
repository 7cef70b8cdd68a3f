// Package workgroup runs an experiment's worker goroutines and carries
// a worker's panic back to the goroutine that waits for them. A panic
// on a goroutine nobody recovers kills the process; routed through a
// Group it re-raises on the caller, where a server's recover can turn
// it into a failed job.
package workgroup

import "sync"

// A Group runs functions on at most limit goroutines at a time.
type Group struct {
	wg  sync.WaitGroup
	sem chan struct{}

	mu       sync.Mutex
	panicked bool
	val      any
}

// New returns a Group that runs at most limit functions at once (at
// least one).
func New(limit int) *Group {
	return &Group{sem: make(chan struct{}, max(limit, 1))}
}

// Go runs f on a new goroutine, first waiting for a free slot. A panic
// in f is recovered; the first one is kept for Wait.
func (g *Group) Go(f func()) {
	g.sem <- struct{}{}
	g.wg.Add(1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				g.mu.Lock()
				if !g.panicked {
					g.panicked, g.val = true, p
				}
				g.mu.Unlock()
			}
			<-g.sem
			g.wg.Done()
		}()
		f()
	}()
}

// Wait blocks until every function has returned, then re-panics with
// the first recovered value, if any.
func (g *Group) Wait() {
	g.wg.Wait()
	if g.panicked {
		panic(g.val)
	}
}

package maiad

import "sync"

// call is one in-flight execution a Group is deduplicating.
type call struct {
	wg  sync.WaitGroup
	val Entry
	err error
}

// Group coalesces concurrent executions that share a content address:
// the first caller of a key runs the function, every concurrent
// duplicate blocks and receives the leader's result. This is the
// serving-path guarantee that N identical requests arriving together
// cost one engine execution, not N — the complement of the cache, which
// only helps once a result is already stored.
//
// Completed keys are forgotten immediately: later requests for the same
// key go to the cache instead, so a Group never grows beyond the number
// of distinct jobs in flight.
type Group struct {
	mu sync.Mutex
	m  map[string]*call
}

// Do executes fn for key, unless an execution for key is already in
// flight, in which case it waits for that one and shares its result.
// The returned flag reports whether the value came from another
// caller's execution (true for every follower, false for the leader).
func (g *Group) Do(key string, fn func() (Entry, error)) (Entry, bool, error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*call)
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		c.wg.Wait()
		return c.val, true, c.err
	}
	c := &call{}
	c.wg.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()
	c.wg.Done()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	return c.val, false, c.err
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"maia/internal/maiad"
)

// conns is the number of client connections, and of goroutines sending
// on them: the machine's two CPUs.
const conns = 2

// call is one pre-built request of an open-loop schedule. Everything a
// call needs is computed before the schedule starts, so the generator
// does no spec or hashing work while it is timing.
type call struct {
	method, path string
	body         []byte
	// class tags the traffic class the call's latency is reported under.
	class int
	// check verifies the decoded answer; a non-nil error counts the
	// call as failed.
	check func(*maiad.JobResponse) error
}

// outcome is what one scheduled call measured.
type outcome struct {
	// latency runs from the moment the call was due to the moment its
	// answer was read and checked, so time spent waiting for a free
	// connection behind a stalled request counts.
	latency time.Duration
	// lag is how late the generator itself dispatched the call.
	lag time.Duration
	err error
}

// loadResult is one open-loop schedule's measurements.
type loadResult struct {
	calls []call
	outs  []outcome
	// elapsed runs from the first due time to the last completion.
	elapsed time.Duration
	// backlog counts calls still waiting for a connection when the last
	// call fell due: a backlog that grows with the rate means the
	// daemon no longer keeps up.
	backlog int
}

// achievedRPS is the completed calls over the measured elapsed time.
func (r loadResult) achievedRPS() float64 {
	return float64(len(r.outs)) / r.elapsed.Seconds()
}

// failures counts calls that errored or failed their check.
func (r loadResult) failures() int {
	n := 0
	for _, o := range r.outs {
		if o.err != nil {
			n++
		}
	}
	return n
}

// latenciesMS returns the latencies, in milliseconds, of the calls of
// one class (class < 0 selects every call).
func (r loadResult) latenciesMS(class int) []float64 {
	var xs []float64
	for i, o := range r.outs {
		if class < 0 || r.calls[i].class == class {
			xs = append(xs, ms(o.latency))
		}
	}
	return xs
}

// firstErr returns the first failure, for diagnostics.
func (r loadResult) firstErr() error {
	for _, o := range r.outs {
		if o.err != nil {
			return o.err
		}
	}
	return nil
}

// newClient returns an HTTP client that keeps at most conns
// connections to the daemon.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// openLoop sends calls[i] at time i/rate from the start, whether or not
// earlier calls have been answered, over conns connections. Calls that
// fall due while both connections are busy wait in a queue, and that
// wait counts in their latency.
func openLoop(client *http.Client, base string, rate float64, calls []call) loadResult {
	n := len(calls)
	res := loadResult{calls: calls, outs: make([]outcome, n)}
	type item struct {
		i   int
		due time.Time
	}
	// Sized to the number of sends, so the dispatcher never blocks and
	// its lag measures only its own timer slop.
	queue := make(chan item, n)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range queue {
				err := do(client, base, calls[it.i])
				res.outs[it.i].latency = time.Since(it.due)
				res.outs[it.i].err = err
			}
		}()
	}
	t0 := time.Now().Add(time.Millisecond)
	for i := 0; i < n; i++ {
		due := t0.Add(time.Duration(float64(i) * float64(time.Second) / rate))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.outs[i].lag = time.Since(due)
		queue <- item{i, due}
	}
	res.backlog = len(queue)
	close(queue)
	wg.Wait()
	res.elapsed = time.Since(t0)
	return res
}

// do sends one call and checks its answer.
func do(client *http.Client, base string, c call) error {
	var body io.Reader
	if c.body != nil {
		body = bytes.NewReader(c.body)
	}
	req, err := http.NewRequest(c.method, base+c.path, body)
	if err != nil {
		return err
	}
	if c.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: read body: %w", c.method, c.path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", c.method, c.path, resp.StatusCode, data)
	}
	var jr maiad.JobResponse
	if err := json.Unmarshal(data, &jr); err != nil {
		return fmt.Errorf("%s %s: decode: %w", c.method, c.path, err)
	}
	return c.check(&jr)
}

package simomp

import (
	"fmt"
	"runtime"

	"maia/internal/vclock"
	"maia/internal/workgroup"
)

// ForOpts configures one work-shared loop.
type ForOpts struct {
	Sched Schedule
	// Chunk is the schedule chunk size; 0 selects the OpenMP default
	// (n/threads for STATIC, 1 for DYNAMIC and GUIDED).
	Chunk int
	// IterCost is the uniform virtual cost of one iteration.
	IterCost vclock.Time
}

// Team is a fork/join thread team bound to a Runtime. Loop bodies execute
// for real on worker goroutines; virtual time is computed by simulating
// the schedule deterministically, so timing never depends on the Go
// scheduler.
type Team struct {
	rt      *Runtime
	threads int
	workers int
}

// NewTeam forks a team using every thread of the runtime's partition.
func NewTeam(rt *Runtime) *Team {
	w := runtime.GOMAXPROCS(0)
	if w > rt.part.Threads() {
		w = rt.part.Threads()
	}
	if w < 1 {
		w = 1
	}
	return &Team{rt: rt, threads: rt.part.Threads(), workers: w}
}

// Threads returns the team size (simulated threads, not Go workers).
func (t *Team) Threads() int { return t.threads }

// assignment maps each simulated thread to the chunks it executes.
type chunk struct{ lo, hi int } // [lo, hi)

// schedule computes, deterministically, which chunks each simulated
// thread executes and the virtual finish time of each thread, given the
// per-iteration cost model. It returns the loop's span (max thread busy
// time, excluding barrier/fork overheads) and its chunk count. Only with
// keep set does it also return the per-thread chunk lists a body runs;
// a timing-only loop (every priced path) builds none.
func (t *Team) schedule(n int, o ForOpts, keep bool) (perThread [][]chunk, chunks int, span vclock.Time) {
	if keep {
		perThread = make([][]chunk, t.threads)
	}
	if n <= 0 {
		return perThread, 0, 0
	}
	assign := func(tid, lo, hi int) {
		chunks++
		if keep {
			perThread[tid] = append(perThread[tid], chunk{lo, hi})
		}
	}
	// Iteration costs are nominal healthy-machine durations; a straggler
	// device stretches them by the fault plan's steady factor.
	cost := func(lo, hi int) vclock.Time {
		return t.rt.scale(vclock.Time(hi-lo) * o.IterCost)
	}
	busy := make([]vclock.Time, t.threads)
	dispatch := t.rt.dispatchCost()

	switch o.Sched {
	case Static:
		chunkSize := o.Chunk
		if chunkSize <= 0 {
			chunkSize = (n + t.threads - 1) / t.threads
		}
		for c, tid := 0, 0; c*chunkSize < n; c, tid = c+1, (tid+1)%t.threads {
			lo := c * chunkSize
			hi := lo + chunkSize
			if hi > n {
				hi = n
			}
			assign(tid, lo, hi)
			busy[tid] += cost(lo, hi)
		}
	case Dynamic:
		chunkSize := o.Chunk
		if chunkSize <= 0 {
			chunkSize = 1
		}
		// The dynamic scheduler's shared counter is a single serialized
		// resource: each dispatch must wait for both a free thread and
		// the counter. This is what makes DYNAMIC,1 so expensive on 236
		// threads (Figure 16).
		var counterFree vclock.Time
		for lo := 0; lo < n; lo += chunkSize {
			hi := lo + chunkSize
			if hi > n {
				hi = n
			}
			tid := earliest(busy)
			assign(tid, lo, hi)
			start := vclock.Max(busy[tid], counterFree)
			counterFree = start + dispatch
			busy[tid] = start + dispatch + cost(lo, hi)
		}
	case Guided:
		minChunk := o.Chunk
		if minChunk <= 0 {
			minChunk = 1
		}
		var counterFree vclock.Time
		for lo := 0; lo < n; {
			size := (n - lo + t.threads - 1) / t.threads
			if size < minChunk {
				size = minChunk
			}
			hi := lo + size
			if hi > n {
				hi = n
			}
			tid := earliest(busy)
			assign(tid, lo, hi)
			start := vclock.Max(busy[tid], counterFree)
			counterFree = start + dispatch
			busy[tid] = start + dispatch + cost(lo, hi)
			lo = hi
		}
	default:
		panic(fmt.Sprintf("simomp: unknown schedule %d", int(o.Sched)))
	}
	for _, b := range busy {
		if b > span {
			span = b
		}
	}
	return perThread, chunks, span
}

// earliest returns the index of the minimum element (ties to the lowest
// thread id, keeping the simulation deterministic).
func earliest(busy []vclock.Time) int {
	best := 0
	for i := 1; i < len(busy); i++ {
		if busy[i] < busy[best] {
			best = i
		}
	}
	return best
}

// run executes the per-thread chunk lists on real goroutines. body may be
// nil for timing-only loops.
func (t *Team) run(perThread [][]chunk, body func(i int)) {
	if body == nil {
		return
	}
	g := workgroup.New(t.workers)
	for _, chunks := range perThread {
		if len(chunks) == 0 {
			continue
		}
		g.Go(func() {
			for _, c := range chunks {
				for i := c.lo; i < c.hi; i++ {
					body(i)
				}
			}
		})
	}
	g.Wait()
}

// For runs a work-shared loop of n iterations under a parallel region
// that already exists (OpenMP `#pragma omp for`). It returns the virtual
// time consumed: schedule span + FOR overhead + the implied barrier.
//
// The body, when non-nil, really executes; iterations must be independent
// (the usual OpenMP loop contract).
func (t *Team) For(n int, o ForOpts, body func(i int)) vclock.Time {
	perThread, chunks, span := t.schedule(n, o, body != nil)
	t.run(perThread, body)
	elapsed := span + t.rt.SyncOverhead(For) + t.rt.SyncOverhead(Barrier)
	if t.rt.tracer != nil {
		t.rt.trace("for["+schedName(o.Sched)+"]", elapsed, chunks)
	}
	return elapsed
}

// ParallelFor runs `#pragma omp parallel for`: fork/join plus the loop.
func (t *Team) ParallelFor(n int, o ForOpts, body func(i int)) vclock.Time {
	perThread, chunks, span := t.schedule(n, o, body != nil)
	t.run(perThread, body)
	elapsed := span + t.rt.SyncOverhead(ParallelFor)
	if t.rt.tracer != nil {
		t.rt.trace("parallel_for["+schedName(o.Sched)+"]", elapsed, chunks)
	}
	return elapsed
}

// Parallel runs a bare parallel region: body(tid) executes once per
// simulated thread; perThreadCost gives each thread's virtual work (nil
// means zero). Returns fork/join overhead plus the longest thread.
func (t *Team) Parallel(body func(tid int), perThreadCost func(tid int) vclock.Time) vclock.Time {
	if body != nil {
		g := workgroup.New(t.workers)
		for tid := 0; tid < t.threads; tid++ {
			g.Go(func() { body(tid) })
		}
		g.Wait()
	}
	var span vclock.Time
	if perThreadCost != nil {
		for tid := 0; tid < t.threads; tid++ {
			if c := perThreadCost(tid); c > span {
				span = c
			}
		}
	}
	elapsed := t.rt.scale(span) + t.rt.SyncOverhead(Parallel)
	t.rt.trace("parallel", elapsed, 0)
	return elapsed
}

// ForReduceSum runs a reduction loop (`parallel for reduction(+:sum)`),
// returning the real sum of body(i) over all iterations and the virtual
// time including the REDUCTION overhead.
//
// Partial sums are combined in deterministic thread order, so the
// floating-point result is reproducible run to run.
func (t *Team) ForReduceSum(n int, o ForOpts, body func(i int) float64) (float64, vclock.Time) {
	perThread, chunks, span := t.schedule(n, o, body != nil)
	partials := make([]float64, t.threads)
	if body != nil {
		g := workgroup.New(t.workers)
		for tid, chunks := range perThread {
			if len(chunks) == 0 {
				continue
			}
			g.Go(func() {
				s := 0.0
				for _, c := range chunks {
					for i := c.lo; i < c.hi; i++ {
						s += body(i)
					}
				}
				partials[tid] = s
			})
		}
		g.Wait()
	}
	sum := 0.0
	for _, p := range partials {
		sum += p
	}
	elapsed := span + t.rt.SyncOverhead(Reduction)
	if t.rt.tracer != nil {
		t.rt.trace("reduction["+schedName(o.Sched)+"]", elapsed, chunks)
	}
	return sum, elapsed
}

// schedName is the lower-case schedule tag in traced span names; callers
// concatenate it only when tracing, as the concatenation allocates.
func schedName(s Schedule) string {
	switch s {
	case Dynamic:
		return "dynamic"
	case Guided:
		return "guided"
	default:
		return "static"
	}
}

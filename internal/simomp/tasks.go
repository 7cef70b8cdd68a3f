package simomp

import "maia/internal/vclock"

// OpenMP explicit tasks (#pragma omp task ... taskwait). The paper's
// micro-benchmark references include the task-overhead suites of LaGrone
// et al. [22] and Bull et al. [24]; this file implements the same
// measurement: tasks are created by one thread (creation serializes on
// the creating thread and the task queue), executed by whichever thread
// is free first, and joined by a taskwait barrier.

// taskCosts are the calibrated per-task overheads (µs at the reference
// thread counts).
type taskCosts struct {
	create   float64 // task allocation + enqueue, paid by the creator
	dispatch float64 // dequeue + start, paid by the executing thread
}

func (r *Runtime) taskCosts() taskCosts {
	if r.part.Device.IsPhi() {
		return taskCosts{create: 3.0, dispatch: 1.2}
	}
	return taskCosts{create: 0.35, dispatch: 0.12}
}

// tasks prices n explicit tasks of grain virtual compute each,
// followed by a taskwait. The return value is the construct's total
// virtual time on the creating thread: creation of all tasks, execution
// on the team (earliest-free-thread schedule, like the runtime's
// work-stealing deques in the balanced case), and the join.
func (t *Team) tasks(n int, grain vclock.Time) vclock.Time {
	rt := t.rt
	tc := rt.taskCosts()
	createCost := vclock.Time(tc.create) * vclock.Microsecond
	dispatchCost := vclock.Time(tc.dispatch) * vclock.Microsecond
	if rt.part.UsesOSCore {
		createCost *= vclock.Time(rt.table.osCoreMult)
		dispatchCost *= vclock.Time(rt.table.osCoreMult)
	}
	createCost = rt.scale(createCost)
	dispatchCost = rt.scale(dispatchCost)
	c := rt.scale(grain)

	// Virtual schedule: the creator emits tasks one creation interval
	// apart; each task starts on the earliest-free thread no earlier
	// than its creation time.
	busy := make([]vclock.Time, t.threads)
	var created vclock.Time
	for i := 0; i < n; i++ {
		created += createCost
		tid := earliest(busy)
		start := vclock.Max(busy[tid], created)
		busy[tid] = start + dispatchCost + c
	}
	var span vclock.Time
	for _, b := range busy {
		if b > span {
			span = b
		}
	}
	// taskwait: a barrier-class join.
	return span + t.rt.SyncOverhead(Barrier)
}

// MeasureTaskOverhead is the EPCC task benchmark: overhead per task for
// n tasks of the reference grain, Tp - Ts/p normalized per task.
func MeasureTaskOverhead(rt *Runtime, n int) vclock.Time {
	team := NewTeam(rt)
	grain := refIterCost * 8
	ts := vclock.Time(n) * grain
	tp := team.tasks(n, grain)
	over := tp - ts/vclock.Time(team.Threads())
	return over / vclock.Time(n)
}

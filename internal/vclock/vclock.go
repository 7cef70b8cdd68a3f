// Package vclock provides the virtual-time foundation used by every
// simulated runtime in this repository.
//
// All benchmark results in the reproduced paper are wall-clock measurements
// on real hardware. Here, hardware is modeled, so time must be virtual:
// each simulated agent (an MPI rank, an OpenMP thread, a DMA engine) carries
// its own Clock that is advanced by explicit cost charges. Virtual time is
// deterministic — it depends only on the workload and the machine model,
// never on the Go scheduler — which makes every reproduced figure exactly
// repeatable.
package vclock

import (
	"fmt"
	"math"
)

// Time is a point (or span) of virtual time, in seconds.
//
// A float64 of seconds comfortably spans the dynamic range this simulator
// needs: sub-nanosecond cache hits (1.5e-9) up to thousand-second
// application runs, with ~15 significant digits throughout.
type Time float64

// Convenient unit constructors.
const (
	Second      Time = 1
	Millisecond Time = 1e-3
	Microsecond Time = 1e-6
	Nanosecond  Time = 1e-9
)

// Seconds returns t as a float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) }

// Microseconds returns t expressed in microseconds.
func (t Time) Microseconds() float64 { return float64(t) / 1e-6 }

// Nanoseconds returns t expressed in nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / 1e-9 }

// String formats the time with an auto-selected engineering unit.
func (t Time) String() string {
	abs := math.Abs(float64(t))
	switch {
	case abs == 0:
		return "0s"
	case abs < 1e-6:
		return fmt.Sprintf("%.3gns", t.Nanoseconds())
	case abs < 1e-3:
		return fmt.Sprintf("%.4gus", t.Microseconds())
	case abs < 1:
		return fmt.Sprintf("%.4gms", float64(t)/1e-3)
	default:
		return fmt.Sprintf("%.4gs", float64(t))
	}
}

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Min returns the earlier of a and b.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// MaxOf returns the latest of a set of times: the makespan of a group of
// agents' clocks. An empty set has makespan zero.
func MaxOf(ts ...Time) Time {
	var m Time
	for _, t := range ts {
		if t > m {
			m = t
		}
	}
	return m
}

// Clock is the virtual clock of one simulated agent.
//
// The zero value is a clock at virtual time zero, ready to use.
type Clock struct {
	now Time
}

// Now reports the agent's current virtual time.
func (c *Clock) Now() Time { return c.now }

// Advance charges dt of virtual time to the agent. Negative charges are a
// programming error and panic: virtual time is monotonic per agent.
func (c *Clock) Advance(dt Time) {
	if dt < 0 {
		panic(fmt.Sprintf("vclock: negative advance %v", dt))
	}
	c.now += dt
}

// AdvanceTo moves the clock forward to at least t. Used when an agent waits
// for an event that completes at absolute virtual time t (e.g. a message
// arrival): if the agent is already past t the clock is unchanged.
func (c *Clock) AdvanceTo(t Time) {
	if t > c.now {
		c.now = t
	}
}

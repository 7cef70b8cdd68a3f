// Package simfault provides deterministic, seed-driven fault plans for
// the simulated Maia system: perturbations of the machine model and the
// runtime cost models that play out entirely in virtual time.
//
// The paper's symmetric-mode OVERFLOW result (Section 6.9.1.3, Figure
// 23) is at heart a robustness story — host and Phi ranks run at unequal
// speeds, and the reported gain comes from a load-balance update that
// adapts to the slower party. Production MIC deployments saw exactly the
// failure modes modeled here: straggler ranks, thermally throttled
// coprocessors, erratic PCIe/DAPL fabrics, and outright card failures.
// A Plan describes such a degraded machine; the runtimes (simmpi,
// simomp, offload, the OVERFLOW drivers) consult it through nil-safe
// methods, so a nil (or empty) plan is exactly the healthy machine.
//
// Determinism is the design constraint. Ranks run on goroutines, so no
// shared RNG stream may be consumed in scheduler order: every random
// decision is a pure function of the plan seed and the identity of the
// event it concerns (source rank, destination rank, per-sender message
// sequence number — or the offload invocation index). Two runs of the
// same program under the same plan therefore make byte-identical
// decisions regardless of interleaving, and parallel experiment runs
// stay byte-identical to sequential ones.
package simfault

import (
	"fmt"
	"math"

	"maia/internal/machine"
	"maia/internal/vclock"
)

// The retry schedule of every faulted fabric (and of a failover probe
// against a dead device).
const (
	// deliveryTimeout is the virtual-time delivery deadline after which
	// a lost message is presumed dropped and retransmitted.
	deliveryTimeout = 50 * vclock.Microsecond
	// retryBackoff is the base retransmit backoff; it doubles on each
	// further attempt (exponential backoff).
	retryBackoff = 20 * vclock.Microsecond
	// maxRetries caps retransmissions per message. The transport is
	// reliable at the cap: the final attempt always delivers, so a lossy
	// fabric degrades a run but never wedges it.
	maxRetries = 4
)

// Straggler slows every rank on one device by a constant factor — the
// classic degraded-node failure mode (a dusty heatsink, a neighbor VM,
// a misbinned part).
type Straggler struct {
	// Device is the device whose ranks straggle.
	Device machine.Device
	// Slowdown multiplies compute time; values <= 1 mean no slowdown.
	Slowdown float64
}

// Throttle is time-varying frequency derating — the Phi's thermal
// throttling as a square wave: within each Period starting at Start,
// compute runs Derate times slower for the first Hot span, then at full
// speed for the remainder.
type Throttle struct {
	// Device is the throttled device.
	Device machine.Device
	// Start is the virtual time the first hot window opens.
	Start vclock.Time
	// Period is the window repetition period (> 0 for a recurring wave;
	// 0 derates everything from Start onward).
	Period vclock.Time
	// Hot is the derated prefix of each period (clamped to Period).
	Hot vclock.Time
	// Derate multiplies compute time while hot; values <= 1 mean none.
	Derate float64
}

// FabricFault degrades one transport class: bandwidth loss, added
// latency, and seeded message drops that force timeout-and-retransmit.
type FabricFault struct {
	// Fabric selects transports by name prefix, matching the names the
	// transport layer reports in flight spans: "pcie:" (any PCIe/DAPL
	// path), "pcie:host-Phi0", "shm:phi", "ib:fdr", ... The empty
	// string matches every fabric.
	Fabric string
	// Derate multiplies message flight time (bandwidth loss plus
	// latency growth); values <= 1 mean no derating.
	Derate float64
	// Delay is a fixed extra latency added to every message flight.
	Delay vclock.Time
	// DropProb is the per-attempt probability a delivery is lost and
	// must be retried after a timeout. Clamped to [0, 1).
	DropProb float64
}

// FlightTime applies the fault's bandwidth derate and fixed delay to a
// healthy flight time.
func (f FabricFault) FlightTime(flight vclock.Time) vclock.Time {
	if f.Derate > 1 {
		flight = vclock.Time(float64(flight) * f.Derate)
	}
	return flight + f.Delay
}

// RetryPenalty returns the virtual time lost before the successful
// attempt when a message needs `attempts` total tries: each failed try
// costs the delivery deadline plus an exponentially growing backoff.
func (f FabricFault) RetryPenalty(attempts int) vclock.Time {
	var p vclock.Time
	backoff := retryBackoff
	for i := 1; i < attempts; i++ {
		p += deliveryTimeout + backoff
		backoff *= 2
	}
	return p
}

// DetectionPenalty returns the virtual time a runtime spends
// discovering that the far end of the fabric is dead: the full retry
// schedule runs with every attempt timing out.
func (f FabricFault) DetectionPenalty() vclock.Time {
	return f.RetryPenalty(maxRetries + 1)
}

// DetectionRetries returns how many retransmissions the detection
// schedule makes before giving up on the far end.
func (f FabricFault) DetectionRetries() int { return maxRetries }

// Failure marks a whole device failed from a virtual time onward (a
// card dropping off the PCIe bus). Runtimes that can degrade gracefully
// (the offload engine) fall back to the host; At = 0 means the device
// was dead from the start.
type Failure struct {
	Device machine.Device
	At     vclock.Time
}

// Plan is one deterministic fault scenario. The zero value (and a nil
// *Plan) injects nothing: every method then reports the healthy
// machine, so plans can be threaded unconditionally through runtime
// construction.
type Plan struct {
	// Name identifies the plan (see Plans for the named catalog).
	Name string
	// Note is a one-line description for listings.
	Note string
	// Seed drives every random decision; two runs with equal seeds make
	// identical decisions.
	Seed uint64

	Stragglers []Straggler
	Throttles  []Throttle
	Fabrics    []FabricFault
	Failures   []Failure
}

// Enabled reports whether the plan injects anything at all.
func (p *Plan) Enabled() bool {
	return p != nil && (len(p.Stragglers) > 0 || len(p.Throttles) > 0 ||
		len(p.Fabrics) > 0 || len(p.Failures) > 0)
}

// String names the plan.
func (p *Plan) String() string {
	if p == nil {
		return "<none>"
	}
	if p.Name != "" {
		return p.Name
	}
	return fmt.Sprintf("plan(seed=%d)", p.Seed)
}

// Slowdown returns the steady compute slowdown factor (>= 1) of a
// device: the product of its straggler entries, throttling excluded.
func (p *Plan) Slowdown(dev machine.Device) float64 {
	s := 1.0
	if p == nil {
		return s
	}
	for _, st := range p.Stragglers {
		if st.Device == dev && st.Slowdown > 1 {
			s *= st.Slowdown
		}
	}
	return s
}

// throttle returns the first throttle entry covering dev.
func (p *Plan) throttle(dev machine.Device) (Throttle, bool) {
	if p == nil {
		return Throttle{}, false
	}
	for _, th := range p.Throttles {
		if th.Device == dev && th.Derate > 1 {
			return th, true
		}
	}
	return Throttle{}, false
}

// ComputeTime maps a nominal compute duration starting at virtual time
// `start` on device dev to its degraded duration: the straggler factor
// applies throughout, and throttle hot windows stretch the work that
// falls inside them. The healthy plan returns d unchanged.
func (p *Plan) ComputeTime(dev machine.Device, start, d vclock.Time) vclock.Time {
	if p == nil || d <= 0 {
		return d
	}
	slow := p.Slowdown(dev)
	th, throttled := p.throttle(dev)
	if !throttled {
		if slow > 1 {
			return vclock.Time(float64(d) * slow)
		}
		return d
	}
	return throttledElapsed(th, slow, start, d)
}

// throttledElapsed integrates the square-wave derate curve: work
// proceeds at rate 1/slow outside hot windows and 1/(slow*Derate)
// inside them. Returns total elapsed virtual time for `work` of nominal
// (healthy-machine) duration starting at `start`.
func throttledElapsed(th Throttle, slow float64, start, work vclock.Time) vclock.Time {
	if slow < 1 {
		slow = 1
	}
	hot := vclock.Min(th.Hot, th.Period)
	if th.Period <= 0 {
		// Degenerate wave: permanently hot from Start.
		hot = 0
	}
	now := start
	remaining := float64(work)
	var elapsed vclock.Time

	// Before the first window everything runs at the straggler rate.
	if now < th.Start {
		span := th.Start - now
		need := vclock.Time(remaining * slow)
		if need <= span {
			return elapsed + need
		}
		elapsed += span
		remaining -= float64(span) / slow
		now = th.Start
	}

	if th.Period <= 0 {
		// Permanently derated from Start on.
		return elapsed + vclock.Time(remaining*slow*th.Derate)
	}

	// Skip whole periods in closed form: each period absorbs
	// hot/(slow*derate) + (period-hot)/slow of nominal work.
	phase := vclock.Time(math.Mod(float64(now-th.Start), float64(th.Period)))
	perPeriod := float64(hot)/(slow*th.Derate) + float64(th.Period-hot)/slow
	if phase == 0 && perPeriod > 0 {
		if full := int64(remaining / perPeriod); full > 0 {
			elapsed += vclock.Time(full) * th.Period
			remaining -= float64(full) * perPeriod
			// now advances by whole periods; phase stays 0.
		}
	}

	// Walk segment boundaries for the remainder (at most a few
	// segments per period, and less than two periods remain after the
	// closed-form skip unless we started mid-period).
	for remaining > 1e-18 {
		inHot := phase < hot
		var span vclock.Time // time to the next boundary
		rate := slow
		if inHot {
			span = hot - phase
			rate = slow * th.Derate
		} else {
			span = th.Period - phase
		}
		need := vclock.Time(remaining * rate)
		if need <= span {
			return elapsed + need
		}
		elapsed += span
		remaining -= float64(span) / rate
		phase += span
		if phase >= th.Period {
			phase = 0
		}
	}
	return elapsed
}

// Fabric returns the first fault entry whose prefix matches the fabric
// name ("pcie:host-Phi0", "shm:phi", "ib:fdr", ...).
func (p *Plan) Fabric(name string) (FabricFault, bool) {
	if p == nil {
		return FabricFault{}, false
	}
	for _, f := range p.Fabrics {
		if len(f.Fabric) <= len(name) && name[:len(f.Fabric)] == f.Fabric {
			return f, true
		}
	}
	return FabricFault{}, false
}

// Failed reports whether dev is failed at virtual time t.
func (p *Plan) Failed(dev machine.Device, t vclock.Time) bool {
	if p == nil {
		return false
	}
	for _, f := range p.Failures {
		if f.Device == dev && t >= f.At {
			return true
		}
	}
	return false
}

// mix64 is the splitmix64 finalizer: a bijective avalanche over the
// event identity, so per-message RNG streams are independent.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// eventSeed derives the RNG seed of one event from the plan seed and
// three identity coordinates.
func (p *Plan) eventSeed(a, b, c int) uint64 {
	return EventSeed(p.Seed, a, b, c)
}

// Attempts returns how many delivery tries a message needs under fault
// f: a pure function of (plan seed, src, dst, seq), so the answer never
// depends on goroutine interleaving. The result is in [1, maxRetries+1];
// the last permitted attempt always succeeds (reliable at the cap).
func (p *Plan) Attempts(f FabricFault, src, dst, seq int) int {
	if p == nil || f.DropProb <= 0 {
		return 1
	}
	drop := f.DropProb
	if drop >= 1 {
		drop = 0.999999
	}
	rng := vclock.NewRNG(p.eventSeed(src, dst, seq))
	attempts := 1
	for attempts <= maxRetries && rng.Float64() < drop {
		attempts++
	}
	return attempts
}

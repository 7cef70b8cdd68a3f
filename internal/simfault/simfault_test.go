package simfault

import (
	"math"
	"testing"

	"maia/internal/machine"
	"maia/internal/vclock"
)

// A nil plan is the healthy machine on every query.
func TestNilPlanIsHealthy(t *testing.T) {
	var p *Plan
	if p.Enabled() {
		t.Fatal("nil plan reports Enabled")
	}
	if got := p.ComputeTime(machine.Phi0, 0, vclock.Second); got != vclock.Second {
		t.Fatalf("nil plan derates compute: %v", got)
	}
	if s := p.Slowdown(machine.Phi0); s != 1 {
		t.Fatalf("nil plan slowdown %v", s)
	}
	if _, ok := p.Fabric("pcie:host-Phi0"); ok {
		t.Fatal("nil plan matched a fabric")
	}
	if p.Failed(machine.Phi0, vclock.Second) {
		t.Fatal("nil plan failed a device")
	}
	if n := p.Attempts(FabricFault{DropProb: 0.5}, 0, 1, 0); n != 1 {
		t.Fatalf("nil plan wants %d attempts", n)
	}
	if p.String() != "<none>" {
		t.Fatalf("nil plan string %q", p.String())
	}
}

// The zero-value plan injects nothing either.
func TestEmptyPlanIsHealthy(t *testing.T) {
	p := &Plan{}
	if p.Enabled() {
		t.Fatal("empty plan reports Enabled")
	}
	if got := p.ComputeTime(machine.Host, 3*vclock.Millisecond, 7*vclock.Microsecond); got != 7*vclock.Microsecond {
		t.Fatalf("empty plan derates compute: %v", got)
	}
	if _, ok := p.Fabric("shm:host"); ok {
		t.Fatal("empty plan matched a fabric")
	}
}

func TestStragglerSlowdown(t *testing.T) {
	p := PhiStraggler()
	if got := p.ComputeTime(machine.Phi0, 0, vclock.Second); math.Abs(float64(got)-1.8) > 1e-12 {
		t.Fatalf("straggler compute = %v, want 1.8s", got)
	}
	if got := p.ComputeTime(machine.Host, 0, vclock.Second); got != vclock.Second {
		t.Fatalf("host derated by a Phi straggler: %v", got)
	}
	if s := p.Slowdown(machine.Phi1); s != 1.8 {
		t.Fatalf("Slowdown(Phi1) = %v", s)
	}
}

// Throttled compute conserves work: elapsed time equals the integral of
// the derate curve, checked against a brute-force small-step walk.
func TestThrottleIntegration(t *testing.T) {
	th := Throttle{Device: machine.Phi0, Start: 1 * vclock.Millisecond,
		Period: 5 * vclock.Millisecond, Hot: 2 * vclock.Millisecond, Derate: 2.2}
	p := &Plan{Throttles: []Throttle{th}}

	brute := func(start, work vclock.Time) vclock.Time {
		const dt = 1e-7 // 100 ns steps
		now := float64(start)
		remaining := float64(work)
		for remaining > 0 {
			phase := math.Mod(now-float64(th.Start), float64(th.Period))
			rate := 1.0
			if now >= float64(th.Start) && phase < float64(th.Hot) {
				rate = th.Derate
			}
			step := math.Min(dt, remaining*rate)
			now += step
			remaining -= step / rate
		}
		return vclock.Time(now) - start
	}

	cases := []struct{ start, work vclock.Time }{
		{0, 500 * vclock.Microsecond},                     // entirely before the first window
		{0, 3 * vclock.Millisecond},                       // crosses into the first hot window
		{2 * vclock.Millisecond, vclock.Millisecond},      // starts inside a hot window
		{4 * vclock.Millisecond, vclock.Millisecond},      // starts in a cold stretch
		{0, 40 * vclock.Millisecond},                      // spans many periods
		{7 * vclock.Millisecond, 23 * vclock.Millisecond}, // mid-phase, many periods
	}
	for _, c := range cases {
		got := p.ComputeTime(machine.Phi0, c.start, c.work)
		want := brute(c.start, c.work)
		if math.Abs(float64(got-want)) > 2e-6 {
			t.Errorf("ComputeTime(start=%v, work=%v) = %v, brute force %v", c.start, c.work, got, want)
		}
		if got < c.work {
			t.Errorf("throttle sped up compute: %v < %v", got, c.work)
		}
	}
}

// Throttled compute is additive: charging work in two halves lands at
// the same total elapsed time as one charge (the runtimes charge
// compute in arbitrary increments).
func TestThrottleAdditivity(t *testing.T) {
	p := ThermalThrottle()
	start := 300 * vclock.Microsecond
	whole := p.ComputeTime(machine.Phi0, start, 9*vclock.Millisecond)
	half1 := p.ComputeTime(machine.Phi0, start, 4500*vclock.Microsecond)
	half2 := p.ComputeTime(machine.Phi0, start+half1, 4500*vclock.Microsecond)
	if diff := math.Abs(float64(whole - (half1 + half2))); diff > 1e-9 {
		t.Fatalf("split charge differs from whole by %v s", diff)
	}
}

// Attempts is a pure function of (seed, src, dst, seq): stable across
// calls, bounded by the retry cap, and sensitive to each coordinate.
func TestAttemptsDeterministic(t *testing.T) {
	f := FabricFault{Fabric: "pcie:", DropProb: 0.4}
	p := &Plan{Seed: 42, Fabrics: []FabricFault{f}}
	counts := map[int]int{}
	for seq := 0; seq < 2000; seq++ {
		a := p.Attempts(f, 3, 7, seq)
		if a < 1 || a > maxRetries+1 {
			t.Fatalf("attempts %d out of [1,%d]", a, maxRetries+1)
		}
		if b := p.Attempts(f, 3, 7, seq); b != a {
			t.Fatalf("attempts not stable: %d then %d", a, b)
		}
		counts[a]++
	}
	if counts[1] == 2000 {
		t.Fatal("40% drop probability never dropped")
	}
	// Roughly 40% of messages need a retry.
	frac := float64(2000-counts[1]) / 2000
	if frac < 0.3 || frac > 0.5 {
		t.Fatalf("retry fraction %.2f implausible for DropProb 0.4", frac)
	}
	other := &Plan{Seed: 43, Fabrics: []FabricFault{f}}
	same := true
	for seq := 0; seq < 200 && same; seq++ {
		same = p.Attempts(f, 3, 7, seq) == other.Attempts(f, 3, 7, seq)
	}
	if same {
		t.Fatal("different seeds produced identical attempt streams")
	}
}

func TestRetryPenalty(t *testing.T) {
	var f FabricFault
	if got := f.RetryPenalty(1); got != 0 {
		t.Fatalf("one attempt has penalty %v", got)
	}
	want := (deliveryTimeout + retryBackoff) + (deliveryTimeout + 2*retryBackoff)
	if got := f.RetryPenalty(3); got != want {
		t.Fatalf("RetryPenalty(3) = %v, want %v", got, want)
	}
}

func TestFabricPrefixMatch(t *testing.T) {
	p := LossyPCIe()
	for _, name := range []string{"pcie:host-Phi0", "pcie:host-Phi1", "pcie:Phi0-Phi1"} {
		if _, ok := p.Fabric(name); !ok {
			t.Errorf("lossy-pcie missed fabric %s", name)
		}
	}
	for _, name := range []string{"shm:host", "shm:phi", "ib:fdr"} {
		if _, ok := p.Fabric(name); ok {
			t.Errorf("lossy-pcie matched healthy fabric %s", name)
		}
	}
}

func TestFailed(t *testing.T) {
	p := &Plan{Failures: []Failure{{Device: machine.Phi1, At: vclock.Millisecond}}}
	if p.Failed(machine.Phi1, 0) {
		t.Fatal("failed before At")
	}
	if !p.Failed(machine.Phi1, vclock.Millisecond) {
		t.Fatal("not failed at At")
	}
	if p.Failed(machine.Phi0, vclock.Second) {
		t.Fatal("wrong device failed")
	}
}

func TestCatalog(t *testing.T) {
	names := Names()
	if len(names) == 0 {
		t.Fatal("empty catalog")
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("catalog not sorted: %v", names)
		}
	}
	for _, n := range names {
		p, err := ByName(n)
		if err != nil {
			t.Fatalf("ByName(%s): %v", n, err)
		}
		if !p.Enabled() {
			t.Errorf("catalog plan %s injects nothing", n)
		}
		if p.Note == "" {
			t.Errorf("catalog plan %s has no note", n)
		}
		if p.Name != n {
			t.Errorf("catalog entry %s builds plan %s", n, p.Name)
		}
		if again, _ := ByName(n); again == p {
			t.Errorf("ByName(%s) returned the same *Plan twice", n)
		}
	}
	if _, err := ByName("no-such-plan"); err == nil {
		t.Fatal("ByName accepted an unknown plan")
	}
}

// TestByNameBuildsOnlyItsPlan pins a lookup's cost to the named plan's
// own construction: ByName must not build (or sort) the rest of the
// catalog on the way.
func TestByNameBuildsOnlyItsPlan(t *testing.T) {
	for _, c := range catalog {
		own := testing.AllocsPerRun(20, func() { _ = c.build() })
		got := testing.AllocsPerRun(20, func() {
			if _, err := ByName(c.name); err != nil {
				t.Fatal(err)
			}
		})
		if got > own {
			t.Errorf("ByName(%s) made %v allocations, its plan alone %v", c.name, got, own)
		}
	}
}

package vclock

import (
	"testing"
	"testing/quick"
)

func TestClockZeroValue(t *testing.T) {
	var c Clock
	if got := c.Now(); got != 0 {
		t.Fatalf("zero clock Now() = %v, want 0", got)
	}
}

func TestClockAdvance(t *testing.T) {
	var c Clock
	c.Advance(3 * Microsecond)
	c.Advance(500 * Nanosecond)
	want := Time(3.5e-6)
	if got := c.Now(); got < want*0.999999 || got > want*1.000001 {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestClockAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Advance did not panic")
		}
	}()
	var c Clock
	c.Advance(-1 * Nanosecond)
}

func TestClockAdvanceTo(t *testing.T) {
	var c Clock
	c.Advance(10 * Microsecond)
	c.AdvanceTo(5 * Microsecond) // in the past: no-op
	if got := c.Now(); got != 10*Microsecond {
		t.Fatalf("AdvanceTo into past moved clock to %v", got)
	}
	c.AdvanceTo(20 * Microsecond)
	if got := c.Now(); got != 20*Microsecond {
		t.Fatalf("AdvanceTo(20us) = %v", got)
	}
}

func TestClockMonotonic(t *testing.T) {
	// Property: any sequence of non-negative advances keeps Now
	// non-decreasing and equal to the running sum.
	f := func(steps []uint16) bool {
		var c Clock
		var sum Time
		for _, s := range steps {
			dt := Time(s) * Nanosecond
			prev := c.Now()
			c.Advance(dt)
			sum += dt
			if c.Now() < prev {
				return false
			}
		}
		diff := float64(c.Now() - sum)
		return diff < 1e-15 && diff > -1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMaxMin(t *testing.T) {
	if Max(1, 2) != 2 || Max(2, 1) != 2 {
		t.Fatal("Max broken")
	}
	if Min(1, 2) != 1 || Min(2, 1) != 1 {
		t.Fatal("Min broken")
	}
	if MaxOf() != 0 || MaxOf(3) != 3 || MaxOf(1, 5, 2) != 5 {
		t.Fatal("MaxOf broken")
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0s"},
		{1.5 * Nanosecond, "1.5ns"},
		{3.3 * Microsecond, "3.3us"},
		{12 * Millisecond, "12ms"},
		{2 * Second, "2s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestTimeUnits(t *testing.T) {
	if (2 * Microsecond).Microseconds() != 2 {
		t.Fatal("Microseconds conversion")
	}
	if (3 * Nanosecond).Nanoseconds() != 3 {
		t.Fatal("Nanoseconds conversion")
	}
	if Second.Seconds() != 1 {
		t.Fatal("Seconds conversion")
	}
}

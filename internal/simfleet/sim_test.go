package simfleet

import (
	"testing"

	"maia/internal/vclock"
)

// TestNextEventOrder drives the loop's next-event choice with hand-built
// events: the arrival slot against the heap top. Equal times must fall
// to the lower schedule sequence whichever side holds it — the 300-trial
// fixture almost never ties an arrival with a heap event, so it cannot
// catch a wrong tie-break on its own.
func TestNextEventOrder(t *testing.T) {
	cases := []struct {
		name                  string
		arrivalAt, heapAt     vclock.Time
		arrivalSeq, heapSeq   uint64
		wantFirst, wantSecond eventKind
	}{
		{"tie, arrival scheduled first", 5, 5, 0, 1, evArrival, evComplete},
		{"tie, heap event scheduled first", 5, 5, 1, 0, evComplete, evArrival},
		{"arrival earlier", 4, 5, 1, 0, evArrival, evComplete},
		{"heap event earlier", 5, 4, 0, 1, evComplete, evArrival},
	}
	for _, c := range cases {
		s := &sim{cfg: Config{Duration: hour}}
		s.events.push(event{at: c.heapAt, seq: c.heapSeq, kind: evComplete})
		s.arrival = event{at: c.arrivalAt, seq: c.arrivalSeq, kind: evArrival}
		s.hasArrival = true
		for _, want := range []eventKind{c.wantFirst, c.wantSecond} {
			e, ok := s.next()
			if !ok || e.kind != want {
				t.Fatalf("%s: next() = %+v, %v; want kind %d", c.name, e, ok, want)
			}
		}
		if e, ok := s.next(); ok {
			t.Fatalf("%s: next() = %+v after both events fired", c.name, e)
		}
	}
}

// TestArrivalConsumesSeq pins that scheduling an arrival takes a sequence
// number even when it falls past the horizon and leaves the slot empty,
// as push does for every other event, so the tie order of the events
// scheduled after it does not depend on where arrivals are kept.
func TestArrivalConsumesSeq(t *testing.T) {
	s := &sim{cfg: Config{Duration: hour, Seed: 1}, meanInter: vclock.Second, seq: 3}
	s.pushArrival()
	if !s.hasArrival || s.arrival.seq != 3 || s.seq != 4 {
		t.Fatalf("in-horizon arrival: slot %+v (filled %v), next seq %d; want seq 3 filled, next 4",
			s.arrival, s.hasArrival, s.seq)
	}

	s = &sim{cfg: Config{Duration: vclock.Millisecond, Seed: 1}, meanInter: hour, seq: 3}
	s.pushArrival()
	if s.hasArrival || s.seq != 4 {
		t.Fatalf("past-horizon arrival: slot filled %v, next seq %d; want empty, next 4", s.hasArrival, s.seq)
	}
	s.push(event{at: 0, kind: evHealth})
	if e, ok := s.next(); !ok || e.kind != evHealth || e.seq != 4 {
		t.Fatalf("next() = %+v, %v; want the health tick at seq 4", e, ok)
	}
	if e, ok := s.next(); ok {
		t.Fatalf("next() = %+v; want no event left", e)
	}
}

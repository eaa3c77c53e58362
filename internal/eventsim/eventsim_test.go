package eventsim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
	s.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	s.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("Now = %v, want 30ms", s.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events reordered: %v", order)
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	s := New(1)
	fired := false
	s.Schedule(-time.Second, func() { fired = true })
	s.Run()
	if !fired || s.Now() != 0 {
		t.Fatalf("negative delay: fired=%v now=%v", fired, s.Now())
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	s := New(1)
	s.Schedule(time.Second, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleAt in the past did not panic")
		}
	}()
	s.ScheduleAt(500*time.Millisecond, func() {})
}

func TestNilFuncPanics(t *testing.T) {
	s := New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("nil event fn did not panic")
		}
	}()
	s.Schedule(0, nil)
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	e := s.Schedule(time.Millisecond, func() { fired = true })
	e.Cancel()
	if e.Pending() {
		t.Fatal("Pending() = true after Cancel")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// The popped slot was recycled: the handle is inert, not "cancelled".
	if e.Pending() || e.At() != 0 {
		t.Fatalf("handle not inert after Run: Pending %v At %v", e.Pending(), e.At())
	}
}

// TestTimerInert: a handle that outlives its event never touches the slot's
// next occupant, however the slot moved on.
func TestTimerInert(t *testing.T) {
	for _, tc := range []struct {
		name string
		// stale returns a handle whose event is over, and the simulator
		// (possibly a second one on the same Pools) to keep running.
		stale func(p *Pools) (Timer, *Simulator)
	}{
		{"after fire", func(p *Pools) (Timer, *Simulator) {
			s := NewWithPools(1, p)
			tm := s.Schedule(time.Millisecond, func() {})
			s.Run()
			return tm, s
		}},
		{"after cancel", func(p *Pools) (Timer, *Simulator) {
			s := NewWithPools(1, p)
			tm := s.Schedule(time.Millisecond, func() { t.Fatal("cancelled event fired") })
			tm.Cancel()
			s.Run()
			return tm, s
		}},
		{"after Release", func(p *Pools) (Timer, *Simulator) {
			s := NewWithPools(1, p)
			tm := s.Schedule(time.Millisecond, func() {})
			s.Run()
			s.Release()
			return tm, NewWithPools(2, p)
		}},
		{"double cancel", func(p *Pools) (Timer, *Simulator) {
			s := NewWithPools(1, p)
			tm := s.Schedule(time.Millisecond, func() { t.Fatal("cancelled event fired") })
			tm.Cancel()
			tm.Cancel()
			if s.Pending() != 1 {
				t.Fatalf("Pending = %d after double cancel, want 1", s.Pending())
			}
			s.Run()
			return tm, s
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPools()
			old, s := tc.stale(p)
			fired := false
			next := s.Schedule(time.Millisecond, func() { fired = true })
			if next.ev != old.ev {
				t.Fatal("the next event did not reuse the stale handle's slot")
			}
			old.Cancel()
			if old.Pending() || !next.Pending() {
				t.Fatalf("stale Pending %v, next Pending %v", old.Pending(), next.Pending())
			}
			s.Run()
			if !fired {
				t.Fatal("a stale handle cancelled its slot's next event")
			}
		})
	}
}

// TestRunUntilRebase: RunUntil(t) drops a cancelled head past t and peeks
// the live one behind it, moving the queue's base beyond the clock it leaves
// at t. Events then scheduled in [t, head) must still fire in (at, seq)
// order, the ones due with the old head after it.
func TestRunUntilRebase(t *testing.T) {
	s := New(1)
	var order []string
	log := func(name string) func() { return func() { order = append(order, name) } }
	s.ScheduleAt(50*time.Millisecond, log("cancelled")).Cancel()
	s.ScheduleAt(100*time.Millisecond, log("head"))
	s.RunUntil(10 * time.Millisecond)
	if s.Now() != 10*time.Millisecond || s.Pending() != 1 {
		t.Fatalf("after RunUntil: Now %v Pending %d, want 10ms 1", s.Now(), s.Pending())
	}
	s.ScheduleAt(100*time.Millisecond, log("head2"))
	s.ScheduleAt(60*time.Millisecond, log("60"))
	s.ScheduleAt(20*time.Millisecond, log("20a"))
	s.ScheduleAt(30*time.Millisecond, log("30"))
	s.ScheduleAt(20*time.Millisecond, log("20b"))
	s.Schedule(0, log("now"))
	s.Run()
	want := []string{"now", "20a", "20b", "30", "60", "head", "head2"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}

	// Across block boundaries: the peeked head sits a hundred 67 ms blocks
	// past the clock, so the rebuilds move the current slot back over them
	// and re-place entries in the coarse level and the far heap as well.
	s = New(1)
	order = nil
	s.ScheduleAt(4*time.Second, log("cancelled")).Cancel()
	s.ScheduleAt(8*time.Second, log("head"))
	s.RunUntil(10 * time.Millisecond)
	if s.Now() != 10*time.Millisecond || s.Pending() != 1 {
		t.Fatalf("after RunUntil: Now %v Pending %d, want 10ms 1", s.Now(), s.Pending())
	}
	s.ScheduleAt(400*time.Second, log("far"))
	s.ScheduleAt(8*time.Second, log("head2"))
	s.ScheduleAt(100*time.Millisecond, log("100ms"))
	s.ScheduleAt(20*time.Millisecond, log("20ms"))
	s.ScheduleAt(100*time.Millisecond, log("100ms2"))
	s.Schedule(0, log("now"))
	s.Run()
	want = []string{"now", "20ms", "100ms", "100ms2", "head", "head2", "far"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("across blocks: order = %v, want %v", order, want)
	}
}

// TestArenaBoundedByPending: the arena holds the pending set, not the
// history — a million events with at most 1k pending carve blocks for 1k.
func TestArenaBoundedByPending(t *testing.T) {
	const pending, total = 1_000, 1_000_000
	s := New(1)
	rng := rand.New(rand.NewSource(1))
	scheduled := 0
	var hold func(any)
	hold = func(any) {
		if scheduled < total {
			scheduled++
			s.ScheduleArgAt(s.Now()+time.Duration(rng.Intn(1_000_000)), hold, nil)
		}
	}
	for ; scheduled < pending; scheduled++ {
		s.ScheduleArgAt(time.Duration(rng.Intn(1_000_000)), hold, nil)
	}
	s.Run()
	if s.Fired() != total {
		t.Fatalf("Fired = %d, want %d", s.Fired(), total)
	}
	if max := (pending+eventBlockSize-1)/eventBlockSize + 1; s.pools.blocks > max {
		t.Fatalf("%d events with %d pending carved %d blocks, want <= %d", total, pending, s.pools.blocks, max)
	}
}

func TestCancelFromInsideEarlierEvent(t *testing.T) {
	s := New(1)
	fired := false
	later := s.Schedule(2*time.Millisecond, func() { fired = true })
	s.Schedule(time.Millisecond, func() { later.Cancel() })
	s.Run()
	if fired {
		t.Fatal("event fired despite cancellation by earlier event")
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	var times []time.Duration
	s.Schedule(time.Millisecond, func() {
		times = append(times, s.Now())
		s.Schedule(time.Millisecond, func() {
			times = append(times, s.Now())
		})
	})
	s.Run()
	if len(times) != 2 || times[0] != time.Millisecond || times[1] != 2*time.Millisecond {
		t.Fatalf("nested times = %v", times)
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var fired []int
	s.Schedule(time.Millisecond, func() { fired = append(fired, 1) })
	s.Schedule(3*time.Millisecond, func() { fired = append(fired, 3) })
	s.RunUntil(2 * time.Millisecond)
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("fired = %v, want [1]", fired)
	}
	if s.Now() != 2*time.Millisecond {
		t.Fatalf("Now = %v, want 2ms", s.Now())
	}
	s.Run()
	if len(fired) != 2 {
		t.Fatalf("remaining event did not fire")
	}
}

func TestRunFor(t *testing.T) {
	s := New(1)
	s.Schedule(5*time.Millisecond, func() {})
	s.RunFor(3 * time.Millisecond)
	if s.Now() != 3*time.Millisecond {
		t.Fatalf("Now = %v, want 3ms", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed produced different random streams")
		}
	}
}

func TestFiredCount(t *testing.T) {
	s := New(1)
	for i := 0; i < 5; i++ {
		s.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	s.Run()
	if s.Fired() != 5 {
		t.Fatalf("Fired = %d, want 5", s.Fired())
	}
}

// Property: for any batch of random delays, events fire in nondecreasing
// time order and the clock never goes backwards.
func TestClockMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		s := New(int64(trial))
		var last time.Duration
		ok := true
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			s.Schedule(time.Duration(rng.Intn(1000))*time.Millisecond, func() {
				if s.Now() < last {
					ok = false
				}
				last = s.Now()
			})
		}
		s.Run()
		if !ok {
			t.Fatal("clock went backwards")
		}
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New(1)
		for j := 0; j < 1000; j++ {
			s.Schedule(time.Duration(j%100)*time.Millisecond, func() {})
		}
		s.Run()
	}
}

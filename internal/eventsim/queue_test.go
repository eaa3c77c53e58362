package eventsim

import (
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"time"
)

// The queue's contract is its pop order: (at, seq), nothing else. These tests
// drive a Simulator and a reference model — a slice kept sorted by (at, seq),
// with the same lazy deletion of cancelled events — through one script of
// operations and require the two to agree after every operation.

// refEvent is one scheduled event in the reference model.
type refEvent struct {
	at        time.Duration
	seq       uint64
	id        int
	spawn     time.Duration // delay of the child it schedules on firing; <0 for none
	cancelled bool
}

type firing struct {
	id int
	at time.Duration
}

type queueHarness struct {
	t testing.TB

	sim     *Simulator
	handles []*Event // sim side, by id
	simLog  []firing
	agreed  int // firings already compared with the model's

	now      time.Duration // model side
	seq      uint64
	pending  []*refEvent // sorted by (at, seq), cancelled events included
	byID     []*refEvent
	modelLog []firing
}

func callFunc(arg any) { arg.(func())() }

// simAdd schedules one event through the API kind selects. Fired events log
// themselves and schedule their child from inside the callback.
func (h *queueHarness) simAdd(kind byte, delay, spawn time.Duration) {
	id := len(h.handles)
	fn := func() {
		// The model runs each operation first, so it already knows this event.
		if id < len(h.byID) && h.byID[id].cancelled {
			h.t.Fatalf("cancelled event %d fired", id)
		}
		h.simLog = append(h.simLog, firing{id, h.sim.Now()})
		if spawn >= 0 {
			h.simAdd(kind+1, spawn, -1)
		}
	}
	var ev *Event
	switch kind % 3 {
	case 0:
		ev = h.sim.Schedule(delay, fn)
	case 1:
		ev = h.sim.ScheduleAt(h.sim.Now()+delay, fn)
	case 2:
		ev = h.sim.ScheduleArgAt(h.sim.Now()+delay, callFunc, fn)
	}
	if ev.At() != h.sim.Now()+delay || ev.Cancelled() {
		h.t.Fatalf("event %d: At %v Cancelled %v right after scheduling at %v", id, ev.At(), ev.Cancelled(), h.sim.Now()+delay)
	}
	h.handles = append(h.handles, ev)
}

func (h *queueHarness) modelAdd(delay, spawn time.Duration) {
	h.seq++
	e := &refEvent{at: h.now + delay, seq: h.seq, id: len(h.byID), spawn: spawn}
	h.byID = append(h.byID, e)
	// seq only grows, so the slot is after every event with at <= e.at.
	i := sort.Search(len(h.pending), func(i int) bool { return h.pending[i].at > e.at })
	h.pending = append(h.pending, nil)
	copy(h.pending[i+1:], h.pending[i:])
	h.pending[i] = e
}

func (h *queueHarness) schedule(kind byte, delay, spawn time.Duration) {
	h.modelAdd(delay, spawn)
	h.simAdd(kind, delay, spawn)
}

func (h *queueHarness) cancel(id int) {
	h.byID[id].cancelled = true
	h.handles[id].Cancel()
	if !h.handles[id].Cancelled() {
		h.t.Fatalf("event %d not Cancelled after Cancel", id)
	}
}

func (h *queueHarness) modelStep() bool {
	for len(h.pending) > 0 {
		e := h.pending[0]
		h.pending = h.pending[1:]
		if e.cancelled {
			continue
		}
		h.now = e.at
		h.modelLog = append(h.modelLog, firing{e.id, e.at})
		if e.spawn >= 0 {
			h.modelAdd(e.spawn, -1)
		}
		return true
	}
	return false
}

func (h *queueHarness) modelRunUntil(t time.Duration) {
	for len(h.pending) > 0 {
		if h.pending[0].cancelled {
			h.pending = h.pending[1:]
			continue
		}
		if h.pending[0].at > t {
			break
		}
		h.modelStep()
	}
	if t > h.now {
		h.now = t
	}
}

// agree compares everything a caller can observe.
func (h *queueHarness) agree(op string) {
	h.t.Helper()
	if h.sim.Now() != h.now {
		h.t.Fatalf("after %s: Now %v, model %v", op, h.sim.Now(), h.now)
	}
	if h.sim.Pending() != len(h.pending) {
		h.t.Fatalf("after %s: Pending %d, model %d", op, h.sim.Pending(), len(h.pending))
	}
	if h.sim.Fired() != uint64(len(h.modelLog)) {
		h.t.Fatalf("after %s: Fired %d, model %d", op, h.sim.Fired(), len(h.modelLog))
	}
	if len(h.simLog) != len(h.modelLog) {
		h.t.Fatalf("after %s: %d firings, model %d", op, len(h.simLog), len(h.modelLog))
	}
	for ; h.agreed < len(h.simLog); h.agreed++ {
		if i := h.agreed; h.simLog[i] != h.modelLog[i] {
			h.t.Fatalf("after %s: firing %d is %+v, model %+v", op, i, h.simLog[i], h.modelLog[i])
		}
	}
}

// runQueueScript interprets script as a sequence of operations, three bytes
// each (opcode, a, b), then drains the queue. Delays are small on purpose so
// that many events share an instant and the seq tiebreak decides.
func runQueueScript(t testing.TB, script []byte) {
	h := &queueHarness{t: t, sim: New(1)}
	for ; len(script) >= 3; script = script[3:] {
		op, a, b := script[0]%8, script[1], script[2]
		switch op {
		case 0, 1, 2:
			spawn := time.Duration(-1)
			if b%4 == 0 {
				spawn = time.Duration(b>>2%8) * time.Millisecond
			}
			h.schedule(op, time.Duration(a%16)*time.Millisecond, spawn)
			h.agree("schedule")
		case 3:
			if n := len(h.handles); n > 0 {
				h.cancel((int(a)<<8 | int(b)) % n)
				h.agree("cancel")
			}
		case 4, 7:
			if want, got := h.modelStep(), h.sim.Step(); got != want {
				t.Fatalf("Step returned %v, model %v", got, want)
			}
			h.agree("step")
		case 5:
			until := h.now + time.Duration(a%32)*time.Millisecond
			h.modelRunUntil(until)
			h.sim.RunUntil(until)
			h.agree("rununtil")
		case 6:
			// A burst deepens the heap past what single schedules reach.
			x := uint32(b) + 1
			for i := 0; i < int(a%64); i++ {
				x = x*1664525 + 1013904223
				h.schedule(byte(x>>8), time.Duration(x>>16%64)*time.Millisecond, -1)
			}
			h.agree("burst")
		}
	}
	for h.modelStep() {
	}
	h.sim.Run()
	h.agree("drain")
	if h.sim.Pending() != 0 {
		t.Fatalf("%d events pending after Run", h.sim.Pending())
	}
}

func TestEventQueueMatchesReference(t *testing.T) {
	lengths := []int{30, 300, 3000}
	for seed := int64(1); seed <= 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, lengths[seed%3])
		rng.Read(script)
		runQueueScript(t, script)
	}
}

// TestEventQueueDeep pushes the heap several levels deep (a fleet-sized
// queue) and drains it against the reference with cancellations mixed in.
func TestEventQueueDeep(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := &queueHarness{t: t, sim: New(1)}
	for i := 0; i < 20_000; i++ {
		h.schedule(byte(i), time.Duration(rng.Intn(500))*time.Millisecond, -1)
	}
	for i := 0; i < 5_000; i++ {
		h.cancel(rng.Intn(len(h.handles)))
	}
	h.agree("fill")
	for i := 0; i < 10_000; i++ {
		if !h.modelStep() || !h.sim.Step() {
			t.Fatal("queue ran dry early")
		}
	}
	h.agree("half")
	for i := 0; i < 10_000; i++ {
		h.schedule(byte(i), time.Duration(rng.Intn(500))*time.Millisecond, 0)
	}
	for h.modelStep() {
	}
	h.sim.Run()
	h.agree("drain")
}

func FuzzEventQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 3*4096 {
			return
		}
		runQueueScript(t, script)
	})
}

// BenchmarkEventQueue is the steady state of a simulation: pop the earliest
// event, push one later, with depth events queued throughout. 1k is a page
// load's queue; a 200-tenant fleet peaks near 6k, 100k is headroom.
func BenchmarkEventQueue(b *testing.B) {
	for _, depth := range []int{1_000, 100_000} {
		b.Run(strconv.Itoa(depth), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			delays := make([]time.Duration, 1<<16)
			for i := range delays {
				delays[i] = time.Duration(rng.Intn(1_000_000)) * time.Microsecond
			}
			sim := New(1)
			i := 0
			var hold func(any)
			hold = func(any) {
				i++
				sim.ScheduleArgAt(sim.Now()+delays[i&(len(delays)-1)], hold, nil)
			}
			for j := 0; j < depth; j++ {
				sim.ScheduleArgAt(delays[j&(len(delays)-1)], hold, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				sim.Step()
			}
		})
	}
}

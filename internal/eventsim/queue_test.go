package eventsim

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
)

// The queue's contract is its pop order: (at, seq), nothing else. These tests
// drive a Simulator and a reference model — a binary heap on (at, seq), with
// the same lazy deletion of cancelled events — through one script of
// operations and require the two to agree after every operation.

// refEvent is one scheduled event in the reference model.
type refEvent struct {
	at        time.Duration
	seq       uint64
	id        int
	spawn     time.Duration // delay of the child it schedules on firing; <0 for none
	cancelled bool
}

// refHeap is the model's pending set, a container/heap on (at, seq).
type refHeap []*refEvent

func (q refHeap) Len() int { return len(q) }
func (q refHeap) Less(i, j int) bool {
	return q[i].at < q[j].at || q[i].at == q[j].at && q[i].seq < q[j].seq
}
func (q refHeap) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refHeap) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refHeap) Pop() any {
	e := (*q)[len(*q)-1]
	*q = (*q)[:len(*q)-1]
	return e
}

type firing struct {
	id int
	at time.Duration
}

type queueHarness struct {
	t testing.TB

	sim     *Simulator
	handles []Timer // sim side, by id
	simLog  []firing
	agreed  int // firings already compared with the model's

	now      time.Duration // model side
	seq      uint64
	pending  refHeap // cancelled events included
	byID     []*refEvent
	modelLog []firing
}

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
	var ev Timer
	switch kind % 3 {
	case 0:
		ev = h.sim.Schedule(delay, fn)
	case 1:
		ev = h.sim.ScheduleAt(h.sim.Now()+delay, fn)
	case 2:
		ev = h.sim.ScheduleArgAt(h.sim.Now()+delay, callFunc, fn)
	}
	if ev.At() != h.sim.Now()+delay || !ev.Pending() {
		h.t.Fatalf("event %d: At %v Pending %v right after scheduling at %v", id, ev.At(), ev.Pending(), h.sim.Now()+delay)
	}
	h.handles = append(h.handles, ev)
}

func (h *queueHarness) modelAdd(delay, spawn time.Duration) {
	h.seq++
	e := &refEvent{at: h.now + delay, seq: h.seq, id: len(h.byID), spawn: spawn}
	h.byID = append(h.byID, e)
	heap.Push(&h.pending, e)
}

func (h *queueHarness) schedule(kind byte, delay, spawn time.Duration) {
	h.modelAdd(delay, spawn)
	h.simAdd(kind, delay, spawn)
}

func (h *queueHarness) cancel(id int) {
	h.byID[id].cancelled = true
	h.handles[id].Cancel()
	if h.handles[id].Pending() {
		h.t.Fatalf("event %d still Pending after Cancel", id)
	}
}

func (h *queueHarness) modelStep() bool {
	for len(h.pending) > 0 {
		e := heap.Pop(&h.pending).(*refEvent)
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
			heap.Pop(&h.pending)
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

// scriptUnits are the delay scales a script operation can pick: the
// milliseconds a page load's events mostly sit apart, microseconds (inside
// one 16 µs slot of the wheel, or the next), seconds (past the 67 ms fine
// level, into the coarse one) and minutes (past its 275 s horizon, into the
// far heap).
var scriptUnits = [4]time.Duration{time.Millisecond, time.Microsecond, 4 * time.Second, 64 * time.Second}

// runQueueScript interprets script as a sequence of operations, three bytes
// each (opcode, a, b), then drains the queue. The opcode's low three bits
// pick the operation and the next two the unit of its delays (scriptUnits;
// 0 is milliseconds). Delays are few units on purpose so that many events
// share an instant and the seq tiebreak decides.
func runQueueScript(t testing.TB, script []byte) {
	h := &queueHarness{t: t, sim: New(1)}
	for ; len(script) >= 3; script = script[3:] {
		op, a, b := script[0]%8, script[1], script[2]
		unit := scriptUnits[script[0]>>3%4]
		switch op {
		case 0, 1, 2:
			spawn := time.Duration(-1)
			if b%4 == 0 {
				spawn = time.Duration(b>>2%8) * unit
			}
			h.schedule(op, time.Duration(a%16)*unit, spawn)
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
			until := h.now + time.Duration(a%32)*unit
			h.modelRunUntil(until)
			h.sim.RunUntil(until)
			h.agree("rununtil")
		case 6:
			// A burst deepens the heap past what single schedules reach.
			x := uint32(b) + 1
			for i := 0; i < int(a%64); i++ {
				x = x*1664525 + 1013904223
				h.schedule(byte(x>>8), time.Duration(x>>16%64)*unit, -1)
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

// queueCases are scripts for what random ones reach only by luck. Each is
// also a FuzzEventQueue seed.
var queueCases = map[string][]byte{
	// Microsecond bursts: slots of more than 16 same-slot events (sorted by
	// the general path), and pushes into the current slot while it drains.
	"micro-slot": {
		8, 5, 0, 14, 63, 3, 14, 63, 7, 4, 0, 0, 8, 0, 1, 4, 0, 0, 8, 3, 1,
		12, 0, 0, 9, 0, 0, 10, 1, 4, 3, 0, 9, 13, 2, 0, 4, 0, 0, 8, 1, 1,
	},
	// Seconds apart: the coarse level, cascades into the fine one, and a
	// RunUntil that leaves the clock blocks behind the current slot.
	"coarse-seconds": {
		16, 3, 4, 22, 63, 9, 3, 0, 5, 3, 0, 11, 21, 5, 0, 4, 0, 0, 0, 7, 4,
		16, 0, 1, 17, 2, 1, 4, 0, 0, 21, 2, 0, 0, 1, 1, 12, 0, 0,
	},
	// Minutes apart: the far heap past the coarse horizon, interleaved with
	// millisecond events, and a RunUntil into the heap's range.
	"far-minutes": {
		24, 15, 1, 30, 63, 5, 0, 5, 1, 29, 3, 0, 24, 4, 4, 3, 0, 2, 4, 0, 0,
		0, 2, 1, 29, 8, 0, 4, 0, 0, 22, 10, 1, 28, 0, 0,
	},
	// RunUntil drops a cancelled head and peeks a live one a hundred blocks
	// out; the pushes that follow rebuild the queue across block boundaries.
	"rununtil-rebase-block": {
		16, 1, 1, 3, 0, 0, 16, 2, 1, 5, 31, 0, 0, 15, 1, 16, 2, 1, 1, 4, 1,
		24, 5, 1, 2, 0, 1, 4, 0, 0, 8, 3, 1, 4, 0, 0,
	},
	// Two events due at 77 ms cascade into one fine slot from the coarse
	// level; an event at 70 ms, in the same 67 ms block, then pushes a third
	// due at 77 ms straight into that slot. Only a (at, seq) sort of the slot
	// fires them in scheduling order.
	"cascade-same-instant": {
		5, 31, 0, 5, 31, 0, 0, 15, 1, 1, 15, 1, 2, 8, 28,
	},
}

func TestEventQueueCases(t *testing.T) {
	for name, script := range queueCases {
		t.Run(name, func(t *testing.T) { runQueueScript(t, script) })
	}
}

// TestSameInstantCascadeAndPush: n events due at one instant reach a fine
// slot through a coarse cascade, and n more through direct pushes once their
// block is current; they fire in scheduling order. n = 2 sorts the slot by
// insertion, n = 40 by the general sort.
func TestSameInstantCascadeAndPush(t *testing.T) {
	const due = 77 * time.Millisecond // block 1; the clock starts in block 0
	for _, n := range []int{2, 40} {
		s := New(1)
		var order []int
		log := func(i int) func() { return func() { order = append(order, i) } }
		for i := 0; i < n; i++ {
			s.ScheduleAt(due, log(i))
		}
		s.ScheduleAt(70*time.Millisecond, func() {
			for i := n; i < 2*n; i++ {
				s.ScheduleAt(due, log(i))
			}
		})
		s.Run()
		for i, v := range order {
			if v != i {
				t.Fatalf("n=%d: order = %v", n, order)
			}
		}
		if len(order) != 2*n {
			t.Fatalf("n=%d: %d fired, want %d", n, len(order), 2*n)
		}
	}
}

func FuzzEventQueue(f *testing.F) {
	for _, script := range queueCases {
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 3*4096 {
			return
		}
		runQueueScript(t, script)
	})
}

// BenchmarkEventQueue is the steady state of a simulation: pop the earliest
// event, push one later, with depth events queued throughout. 1k is a page
// load's queue and 100k is headroom, both with delays uniform over 0–1 s. A
// 200-tenant fleet (seed 1, ONLD, 256 MB cache) holds 5,340 entries on
// average and peaks at 9,040, 37 % of them cancelled 10 s origin deadlines:
// the fleet row keeps 6k queued, a third of them such deadlines. The sweep
// row replays the delays a steady seed-1 sweep schedules, by bit length of
// the delay in nanoseconds: 13 % at 11–13 (2–8 µs, packet serialisation),
// 14 % at 14–21, 65 % at 22–28 (4–268 ms, propagation and timers) and 8 % at
// 29–34; its 400 queued events sit inside the 100–700 a page load's queue
// holds. The bulk row schedules 200k events 1 µs apart before the first pop,
// the shape of bench/'s eventsim.ns_per_event probe: each slot of the wheel
// drains 16 events and a fresh block cascades every 67 ms of keys.
func BenchmarkEventQueue(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	uniform := make([]time.Duration, 1<<16)
	for i := range uniform {
		uniform[i] = time.Duration(rng.Intn(1_000_000)) * time.Microsecond
	}
	sweep := make([]time.Duration, 1<<16)
	for i := range sweep {
		var lo, hi int // bit lengths
		switch p := rng.Intn(100); {
		case p < 13:
			lo, hi = 11, 13
		case p < 27:
			lo, hi = 14, 21
		case p < 92:
			lo, hi = 22, 28
		default:
			lo, hi = 29, 34
		}
		l := lo + rng.Intn(hi-lo+1)
		sweep[i] = time.Duration(1<<(l-1) + rng.Int63n(1<<(l-1)))
	}
	steady := func(b *testing.B, delays []time.Duration, live, deadlines int) {
		sim := New(1)
		i := 0
		var hold func(any)
		hold = func(any) {
			i++
			sim.ScheduleArgAt(sim.Now()+delays[i&(len(delays)-1)], hold, nil)
		}
		for j := 0; j < live; j++ {
			sim.ScheduleArgAt(delays[j&(len(delays)-1)], hold, nil)
		}
		if deadlines > 0 {
			// Origin deadlines armed at a steady rate, each cancelled by its
			// response eight arms later: the cancelled ones wait out their
			// 10 s in the queue. Start with the window already full.
			const window = 10 * time.Second
			for j := 0; j < deadlines; j++ {
				sim.ScheduleArgAt(time.Duration(j)*window/time.Duration(deadlines), hold, nil).Cancel()
			}
			// Delays average 0.5 s, so live events fire 2*live times a second.
			every := 2 * live * int(window/time.Second) / deadlines
			var ring [8]Timer
			k := 0
			inner := hold
			hold = func(arg any) {
				inner(arg)
				if i%every == 0 {
					ring[k%len(ring)].Cancel()
					ring[k%len(ring)] = sim.ScheduleArgAt(sim.Now()+window, hold, nil)
					k++
				}
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			sim.Step()
		}
	}
	b.Run("1000", func(b *testing.B) { steady(b, uniform, 1_000, 0) })
	b.Run("100000", func(b *testing.B) { steady(b, uniform, 100_000, 0) })
	b.Run("fleet", func(b *testing.B) { steady(b, uniform, 4_000, 2_000) })
	b.Run("sweep", func(b *testing.B) { steady(b, sweep, 400, 0) })
	b.Run("bulk", func(b *testing.B) {
		const events = 200_000
		for n := 0; n < b.N; n++ {
			sim := New(1)
			for i := 0; i < events; i++ {
				sim.Schedule(time.Duration(i)*time.Microsecond, func() {})
			}
			sim.Run()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
	})
}

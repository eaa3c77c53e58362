// Package eventsim provides the discrete-event simulation core used by all
// PARCEL simulation substrates: a virtual clock, a deterministic event queue,
// and a seedable random source.
//
// Virtual time is represented as time.Duration since the start of the
// simulation. Events scheduled for the same instant fire in the order they
// were scheduled, which makes every simulation run bit-for-bit deterministic
// for a fixed seed.
package eventsim

import (
	"fmt"
	"math/rand"
	"time"
)

// event is one scheduled callback, carved from an arena block and recycled
// through its Pools' free list as soon as it is popped, fired or cancelled:
// a simulator's arena is bounded by its peak pending events, not by the
// events it ever scheduled.
//
// fn(arg) is the callback — Schedule and ScheduleAt carry a plain func() as
// arg of callFunc — and fn == nil marks a cancelled event. ScheduleArgAt
// exists for zero-allocation hot paths: a package-level func(any) plus a
// pooled argument pointer schedules without materialising a closure, where a
// capturing closure would heap-allocate once per event.
//
// gen is odd while the slot is queued and even while it is free. It is
// never reset, whichever simulator on the Pools takes the slot next, so a
// Timer taken at one generation never matches a later one.
type event struct {
	at   time.Duration
	seq  uint64
	gen  uint64
	fn   func(any)
	arg  any
	next *event // free-list or slot-list link
}

func callFunc(arg any) { arg.(func())() }

// Timer is the handle Schedule, ScheduleAt and ScheduleArgAt return: the
// event's slot and the generation it was scheduled at. Once the event fires
// or is cancelled its slot is recycled, and the handle goes inert — Cancel
// does nothing and Pending reports false — whether the slot stays free, is
// reused by a later event, or was handed to the next simulator on the same
// Pools. The zero Timer is inert.
type Timer struct {
	ev  *event
	gen uint64
}

// Pending reports whether the event is still due to fire: scheduled, not
// yet fired, not cancelled.
func (t Timer) Pending() bool { return t.ev != nil && t.ev.gen == t.gen && t.ev.fn != nil }

// At returns the virtual time the event is due to fire, or 0 once the handle
// is inert.
func (t Timer) At() time.Duration {
	if !t.Pending() {
		return 0
	}
	return t.ev.at
}

// Cancel prevents the event from firing. On an inert handle it is a no-op.
// The cancelled event stays queued (Simulator.Pending counts it) until it
// surfaces, and its slot is recycled then.
func (t Timer) Cancel() {
	if t.Pending() {
		t.ev.fn, t.ev.arg = nil, nil
	}
}

// eventBlockSize is how many events one arena block holds: one heap
// allocation per block instead of one per event.
const eventBlockSize = 256

// Pools holds the storage a simulator's pending set lives in: the event
// arena with its free list, and spare queues (timing wheels). Every
// simulator draws from one (New makes a private one). A batch engine that
// runs many page simulations per worker, one after another, hands all of
// them the same Pools, so one run's recycled events and wheel are the
// next run's — the generation in every Timer keeps a handle inert once its
// slot is reused, in this run or a later one. Pools is owned by one
// goroutine at a time (the worker driving its batch); it is not safe for
// concurrent use.
type Pools struct {
	free   *event
	arena  []event // the uncarved rest of the newest block
	blocks int     // blocks carved, for TestArenaBoundedByPending
	queues []*eventQueue
}

// NewPools returns an empty pool.
func NewPools() *Pools { return &Pools{} }

// newEvent takes a free event, or carves one, and opens its generation.
func (p *Pools) newEvent() *event {
	e := p.free
	if e != nil {
		p.free = e.next
		e.next = nil
	} else {
		if len(p.arena) == 0 {
			p.arena = make([]event, eventBlockSize)
			p.blocks++
		}
		e = &p.arena[0]
		p.arena = p.arena[1:]
	}
	e.gen++
	return e
}

// freeEvent closes e's generation, which makes every Timer on it inert, and
// puts it on the free list.
func (p *Pools) freeEvent(e *event) {
	e.gen++
	e.fn, e.arg = nil, nil
	e.next = p.free
	p.free = e
}

// Simulator owns the virtual clock and the pending-event queue.
// The zero value is not usable; construct with New.
//
// A Simulator is owned by a single goroutine: it is not safe for concurrent
// use, and every Schedule/Step/Run call must come from the goroutine that is
// driving the simulation. Parallel experiment runners get their concurrency
// by building one private Simulator (topology) per task, never by sharing
// one. Build with -tags simdebug to turn this contract into a runtime check
// that panics on cross-goroutine use instead of corrupting the event queue.
type Simulator struct {
	owner ownerCheck // empty unless built with -tags simdebug

	now   time.Duration
	queue *eventQueue
	seq   uint64
	rng   *rand.Rand
	fired uint64
	pools *Pools
}

// New returns a simulator whose clock starts at zero and whose random source
// is seeded with seed.
func New(seed int64) *Simulator { return NewWithPools(seed, nil) }

// NewWithPools is New drawing events and its queue from p (nil for a
// private pool). Pair with Release to return the queue when the run is over.
func NewWithPools(seed int64, p *Pools) *Simulator {
	if p == nil {
		p = NewPools()
	}
	s := &Simulator{rng: rand.New(rand.NewSource(seed)), pools: p}
	if n := len(p.queues); n > 0 {
		s.queue = p.queues[n-1]
		p.queues[n-1] = nil
		p.queues = p.queues[:n-1]
	} else {
		s.queue = new(eventQueue)
	}
	s.claimOwner()
	return s
}

// Release returns the queue to the simulator's pools for the next simulator
// to reuse; its events went back one by one as they were popped. It is only
// legal once the simulation is over: the event queue must be drained. Only
// Now, Rand and Fired answer afterwards, and a Timer still held is inert.
func (s *Simulator) Release() {
	if s.queue.n != 0 {
		panic(fmt.Sprintf("eventsim: Release with %d events still queued", s.queue.n))
	}
	s.queue.reset()
	s.pools.queues = append(s.pools.queues, s.queue)
	s.queue = nil
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Rand returns the simulation's deterministic random source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Fired returns the number of events executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending returns the number of events currently queued.
func (s *Simulator) Pending() int { return s.queue.n }

// Schedule queues fn to run after delay of virtual time. A negative delay is
// treated as zero (the event fires at the current instant, after any events
// already scheduled for that instant).
func (s *Simulator) Schedule(delay time.Duration, fn func()) Timer {
	if delay < 0 {
		delay = 0
	}
	return s.ScheduleAt(s.now+delay, fn)
}

// ScheduleAt queues fn to run at absolute virtual time t. Scheduling in the
// past panics: it indicates a logic error in the caller, and silently
// reordering events would break causality.
func (s *Simulator) ScheduleAt(t time.Duration, fn func()) Timer {
	if fn == nil {
		panic("eventsim: nil event function")
	}
	return s.ScheduleArgAt(t, callFunc, fn)
}

// ScheduleArgAt queues fn(arg) to run at absolute virtual time t. It is the
// allocation-free variant of ScheduleAt: with a package-level fn and a pooled
// pointer arg, the only storage consumed is a recycled event slot.
// Ordering relative to ScheduleAt events follows the shared seq counter.
func (s *Simulator) ScheduleArgAt(t time.Duration, fn func(any), arg any) Timer {
	if t < s.now {
		panic(fmt.Sprintf("eventsim: event at %v is before now (%v)", t, s.now))
	}
	if fn == nil {
		panic("eventsim: nil event function")
	}
	s.enterQueue()
	s.seq++
	e := s.pools.newEvent()
	e.at, e.seq, e.fn, e.arg = t, s.seq, fn, arg
	s.queue.push(e)
	s.exitQueue()
	return Timer{ev: e, gen: e.gen}
}

// Step executes the earliest pending event, advancing the clock to its
// scheduled time. It returns false when no events remain. The event's slot
// is recycled before its callback runs, so the callback's own Timer is
// already inert and its first Schedule reuses the slot.
func (s *Simulator) Step() bool {
	for s.queue.n > 0 {
		s.enterQueue()
		e := s.queue.pop()
		at, fn, arg := e.at, e.fn, e.arg
		s.pools.freeEvent(e)
		s.exitQueue()
		if fn == nil {
			continue // cancelled
		}
		s.now = at
		s.fired++
		fn(arg)
		return true
	}
	return false
}

// Run executes events until the queue is empty.
func (s *Simulator) Run() {
	s.checkOwner()
	for s.Step() {
	}
}

// RunUntil executes events with scheduled time <= t, then advances the clock
// to exactly t. Cancelled events at the head are dropped even past t.
func (s *Simulator) RunUntil(t time.Duration) {
	s.checkOwner()
	for s.queue.n > 0 {
		s.enterQueue()
		head := s.queue.front()
		if head.fn == nil {
			s.queue.pop()
			s.pools.freeEvent(head)
			s.exitQueue()
			continue
		}
		s.exitQueue()
		if head.at > t {
			break
		}
		s.Step()
	}
	if t > s.now {
		s.now = t
	}
}

// RunFor executes events for d of virtual time from the current instant.
func (s *Simulator) RunFor(d time.Duration) { s.RunUntil(s.now + d) }

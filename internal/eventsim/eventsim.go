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

// Event is a scheduled callback. It can be cancelled before it fires.
//
// An event carries either a plain fn (Schedule/ScheduleAt) or an
// argument-taking afn+arg pair (ScheduleArgAt). The latter exists for
// zero-allocation hot paths: a package-level func(any) plus a pooled
// argument pointer schedules without materialising a closure, where a
// capturing closure would heap-allocate once per event.
type Event struct {
	at     time.Duration
	seq    uint64
	fn     func()
	afn    func(any)
	arg    any
	cancel bool
}

// At returns the virtual time the event is scheduled to fire.
func (e *Event) At() time.Duration { return e.at }

// Cancel prevents the event from firing. Cancelling an event that already
// fired (or was cancelled) is a no-op.
func (e *Event) Cancel() {
	e.cancel = true
	e.fn = nil
	e.afn = nil
	e.arg = nil
}

// Cancelled reports whether Cancel was called on the event.
func (e *Event) Cancelled() bool { return e.cancel }

// eventBlockSize is how many Events one arena block holds. Events are the
// dominant allocation of a simulation run (two-plus per packet), so they are
// carved out of append-only blocks: one heap allocation per block instead of
// one per event. Blocks are never reused within a simulation, which keeps
// outstanding *Event handles (e.g. a held cancellation timer) valid for the
// simulator's whole lifetime.
const eventBlockSize = 256

// Pools recycles event arena blocks across simulators. A batch engine that
// runs many page simulations per worker hands every simulator the same Pools
// so finished runs return their blocks for the next run to carve, instead of
// re-allocating the arena per page. Pools is owned by one goroutine at a
// time (the worker driving its batch); it is not safe for concurrent use.
type Pools struct {
	blocks [][]Event
}

// NewPools returns an empty block pool.
func NewPools() *Pools { return &Pools{} }

func (p *Pools) getBlock() []Event {
	if n := len(p.blocks); n > 0 {
		b := p.blocks[n-1]
		p.blocks[n-1] = nil
		p.blocks = p.blocks[:n-1]
		return b
	}
	return make([]Event, eventBlockSize)
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
	now    time.Duration
	queue  eventQueue
	seq    uint64
	rng    *rand.Rand
	fired  uint64
	inStep bool

	arena  []Event   // current arena block; see eventBlockSize
	blocks [][]Event // every block carved this run, for Release
	pools  *Pools    // shared block pool; nil for a private simulator

	owner int64 // owning goroutine id; maintained only under -tags simdebug
}

// New returns a simulator whose clock starts at zero and whose random source
// is seeded with seed.
func New(seed int64) *Simulator { return NewWithPools(seed, nil) }

// NewWithPools is New drawing event arena blocks from p (nil for a private
// arena). Pair with Release to return the blocks when the run is over.
func NewWithPools(seed int64, p *Pools) *Simulator {
	s := &Simulator{
		rng:   rand.New(rand.NewSource(seed)),
		queue: make(eventQueue, 0, eventBlockSize),
		pools: p,
	}
	s.claimOwner()
	return s
}

// newEvent carves an event out of the arena.
func (s *Simulator) newEvent() *Event {
	if len(s.arena) == 0 {
		var b []Event
		if s.pools != nil {
			b = s.pools.getBlock()
		} else {
			b = make([]Event, eventBlockSize)
		}
		s.blocks = append(s.blocks, b)
		s.arena = b
	}
	e := &s.arena[0]
	s.arena = s.arena[1:]
	return e
}

// Release returns every arena block this simulator carved to its shared
// pool. It is only legal once the simulation is over: the event queue must
// be drained, and the caller must have dropped every outstanding *Event
// handle — blocks are zeroed and handed to the next simulator, so a retained
// handle would alias a future run's events. A no-op for pool-less
// simulators.
func (s *Simulator) Release() {
	if s.pools == nil {
		return
	}
	if len(s.queue) != 0 {
		panic(fmt.Sprintf("eventsim: Release with %d events still queued", len(s.queue)))
	}
	for _, b := range s.blocks {
		for i := range b {
			b[i] = Event{}
		}
		s.pools.blocks = append(s.pools.blocks, b)
	}
	s.blocks = nil
	s.arena = nil
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Rand returns the simulation's deterministic random source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Fired returns the number of events executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending returns the number of events currently queued.
func (s *Simulator) Pending() int { return len(s.queue) }

// Schedule queues fn to run after delay of virtual time. A negative delay is
// treated as zero (the event fires at the current instant, after any events
// already scheduled for that instant).
func (s *Simulator) Schedule(delay time.Duration, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	//parcelvet:allow pooldiscipline(Event handles are arena-backed and valid for the simulator's lifetime; callers hold them only to Cancel)
	return s.ScheduleAt(s.now+delay, fn)
}

// ScheduleAt queues fn to run at absolute virtual time t. Scheduling in the
// past panics: it indicates a logic error in the caller, and silently
// reordering events would break causality.
func (s *Simulator) ScheduleAt(t time.Duration, fn func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("eventsim: ScheduleAt(%v) is before now (%v)", t, s.now))
	}
	if fn == nil {
		panic("eventsim: nil event function")
	}
	s.checkOwner()
	s.seq++
	e := s.newEvent()
	*e = Event{at: t, seq: s.seq, fn: fn}
	s.queue.push(queueEntry{at: t, seq: s.seq, ev: e})
	//parcelvet:allow pooldiscipline(Event handles are arena-backed and valid for the simulator's lifetime; callers hold them only to Cancel)
	return e
}

// ScheduleArgAt queues fn(arg) to run at absolute virtual time t. It is the
// allocation-free variant of ScheduleAt: with a package-level fn and a pooled
// pointer arg, the only storage consumed is the arena-backed Event itself.
// Ordering relative to ScheduleAt events follows the shared seq counter.
func (s *Simulator) ScheduleArgAt(t time.Duration, fn func(any), arg any) *Event {
	if t < s.now {
		panic(fmt.Sprintf("eventsim: ScheduleArgAt(%v) is before now (%v)", t, s.now))
	}
	if fn == nil {
		panic("eventsim: nil event function")
	}
	s.checkOwner()
	s.seq++
	e := s.newEvent()
	*e = Event{at: t, seq: s.seq, afn: fn, arg: arg}
	s.queue.push(queueEntry{at: t, seq: s.seq, ev: e})
	//parcelvet:allow pooldiscipline(Event handles are arena-backed and valid for the simulator's lifetime; callers hold them only to Cancel)
	return e
}

// Step executes the earliest pending event, advancing the clock to its
// scheduled time. It returns false when no events remain.
func (s *Simulator) Step() bool {
	s.checkOwner()
	for len(s.queue) > 0 {
		e := s.queue[0].ev
		s.queue.pop()
		if e.cancel {
			continue
		}
		s.now = e.at
		s.fired++
		if e.afn != nil {
			afn, arg := e.afn, e.arg
			e.afn, e.arg = nil, nil
			afn(arg)
			return true
		}
		fn := e.fn
		e.fn = nil
		fn()
		return true
	}
	return false
}

// Run executes events until the queue is empty.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with scheduled time <= t, then advances the clock
// to exactly t.
func (s *Simulator) RunUntil(t time.Duration) {
	for len(s.queue) > 0 {
		head := s.queue[0]
		if head.ev.cancel {
			s.queue.pop()
			continue
		}
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

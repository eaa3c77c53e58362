//go:build simdebug

package eventsim

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
)

// With -tags simdebug every Simulator remembers the goroutine that built it
// and panics when another goroutine drives it. A parallel-runner bug that
// leaks a topology across workers then fails loudly at the offending call
// site instead of silently corrupting the event queue.
//
// Reading the goroutine id costs a runtime.Stack call (about a microsecond),
// so it is not paid on every queue operation:
//
//   - every push (ScheduleArgAt) and pop (Step, RunUntil) holds an atomic
//     busy flag while it touches the queue, and a second goroutine that
//     enters while the flag is held panics: two goroutines inside the queue
//     at once are caught on the spot;
//   - the goroutine id is compared in full at the driver entry points (Run
//     and RunUntil) and on the queue operations whose count is a power of
//     two or a multiple of ownerSample: a goroutine that drives the
//     simulator for ownerSample operations in a row is caught within them.
//
// What it no longer catches: a foreign goroutine that schedules or steps a
// few times, between the sampled operations and never while the owner is
// inside the queue (the owner running a callback, or idle, does not hold
// the flag). Before, every such call was caught.

// ownerSample is how many queue operations may pass between two full
// goroutine-id comparisons.
const ownerSample = 1024

type ownerCheck struct {
	id    int64 // owning goroutine
	busy  atomic.Bool
	calls atomic.Uint64
}

func (s *Simulator) claimOwner() { s.owner.id = goroutineID() }

func (s *Simulator) checkOwner() {
	if gid := goroutineID(); gid != s.owner.id {
		panic(fmt.Sprintf(
			"eventsim: Simulator owned by goroutine %d used from goroutine %d; "+
				"a Simulator must be driven by a single goroutine", s.owner.id, gid))
	}
}

func (s *Simulator) enterQueue() {
	if n := s.owner.calls.Add(1); n&(n-1) == 0 || n%ownerSample == 0 {
		s.checkOwner()
	}
	if !s.owner.busy.CompareAndSwap(false, true) {
		panic("eventsim: two goroutines inside one Simulator's event queue at once; " +
			"a Simulator must be driven by a single goroutine")
	}
}

func (s *Simulator) exitQueue() { s.owner.busy.Store(false) }

// goroutineID parses the current goroutine's id out of the runtime stack
// header ("goroutine 18 [running]:").
func goroutineID() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	fields := bytes.Fields(buf[:n])
	if len(fields) < 2 {
		panic("eventsim: cannot parse runtime.Stack header")
	}
	id, err := strconv.ParseInt(string(fields[1]), 10, 64)
	if err != nil {
		panic("eventsim: cannot parse goroutine id: " + err.Error())
	}
	return id
}

//go:build simdebug

package eventsim

import "fmt"

const queueDebug = true

var tierNames = [...]string{"fine slot", "coarse slot", "far heap"}

// check verifies e as it lands in or leaves slot idx of tier, against the
// current slot ref: its generation is a queued one (odd: the slot has not
// been recycled under the entry), and its key names that tier and slot — a
// fine entry is in ref's block at or past ref (at ref itself only while a
// block cascades in), a coarse one in one of the next levelSlots-1 blocks at
// index block mod levelSlots, a far one in a later block. Every entry is
// checked each time it lands or leaves, at O(1) per check: a whole-queue walk
// per operation would make fleet-sized simulations quadratic.
func (q *eventQueue) check(e *event, tier, idx int, ref int64) {
	if e.gen&1 == 0 {
		panic(fmt.Sprintf("eventsim: queue entry at %v in a %s is not a queued event", e.at, tierNames[tier]))
	}
	s := int64(e.at) >> slotBits
	d := s>>levelBits - ref>>levelBits
	var ok bool
	switch tier {
	case tierFine:
		ok = d == 0 && s >= ref && int(s&slotMask) == idx
	case tierCoarse:
		ok = d > 0 && d < levelSlots && int(s>>levelBits&slotMask) == idx
	case tierFar:
		ok = d > 0
	}
	if !ok {
		panic(fmt.Sprintf("eventsim: entry at %v sits in %s %d, which its key does not name (current slot %d)",
			e.at, tierNames[tier], idx, ref))
	}
}

// checkCur verifies cur[i], just inserted, sorted or about to pop: a queued
// event, keyed in the current slot, and ordered by (at, seq) after its
// predecessor and before its successor.
func (q *eventQueue) checkCur(i int) {
	e := q.cur[i]
	if e.gen&1 == 0 || int64(e.at)>>slotBits != q.slot {
		panic(fmt.Sprintf("eventsim: entry at %v in the current slot %d is not a queued event of it", e.at, q.slot))
	}
	if i > q.head && !before(q.cur[i-1], e) || i+1 < len(q.cur) && !before(e, q.cur[i+1]) {
		panic(fmt.Sprintf("eventsim: current slot out of (at, seq) order at entry %d (at %v, seq %d)", i, e.at, e.seq))
	}
}

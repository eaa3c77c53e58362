package eventsim

import (
	"cmp"
	"container/heap"
	"math"
	"math/bits"
	"slices"
)

// The queue is a two-level timing wheel (Varghese and Lauck, SOSP '87) with a
// heap beyond its horizon. Keys are nanoseconds of virtual time:
//
//   - a slot is 2^slotBits ns (16.4 µs) of keys, and the current slot — the
//     one the last popped event sat in — is cur, a slice kept sorted by
//     (at, seq);
//   - the fine level holds the rest of the current block, one aligned run of
//     levelSlots slots (67 ms), one list per slot;
//   - the coarse level holds the next levelSlots-1 blocks (275 s), one list
//     per block, indexed by block number modulo levelSlots;
//   - far, a binary heap on (at, seq), holds everything past that horizon.
//
// An event is placed once, by its key against the current slot, and moves
// at most twice more: a coarse or far entry drops into the fine level when
// its block becomes current, and a fine list becomes cur when its slot does.
// The next non-empty slot of a level is two TrailingZeros64 on its occupancy
// bitmap. Lists thread through event.next, which the free list also uses: an
// event is queued or free, never both.
//
// Pop order is exactly (at, seq). Every tier holds only keys past the current
// slot, and cur is sorted by (at, seq): a list becomes cur in whatever order
// it was built and is sorted then, on seq as well as at. Every list is built
// by prepending, so direct pushes sit newest first; a cascade walks a coarse
// list (newest first) and prepends each entry to its fine list, which puts
// that run oldest first, under any newest-first run pushed after it. Equal
// keys can therefore arrive in either order. A push into the current slot
// is inserted in place; it carries the highest seq yet, so it goes after
// every queued event with the same key.
//
// Invariant: every queued key is at or past the current slot. Step fires the
// head of cur, which is then now, so every later Schedule lands at or past
// it. RunUntil(t) may pop a cancelled head, or peek a live one, past t and
// then leave the clock at t; a push below the current slot then rebuilds the
// queue around it (rebase). Cancelled events stay queued until they surface
// (see Simulator.Step).
const (
	slotBits   = 14
	levelBits  = 12
	levelSlots = 1 << levelBits
	slotMask   = levelSlots - 1
	blockBits  = slotBits + levelBits // one block: the fine level's span, one coarse slot
)

// The tiers past the current slot, as the simdebug check names them.
const (
	tierFine = iota
	tierCoarse
	tierFar
)

// wheelLevel is one level of the wheel: a list head per slot and an
// occupancy bitmap over them, summarised one bit per word.
type wheelLevel struct {
	head  [levelSlots]*event
	words [levelSlots / 64]uint64
	sum   uint64 // bit w is set while words[w] != 0
}

// add prepends e to slot i's list.
func (l *wheelLevel) add(i int, e *event) {
	e.next = l.head[i]
	l.head[i] = e
	l.words[i>>6] |= 1 << (i & 63)
	l.sum |= 1 << (i >> 6)
}

// clear marks slot i empty once its list has been taken.
func (l *wheelLevel) clear(i int) {
	l.head[i] = nil
	w := i >> 6
	if l.words[w] &^= 1 << (i & 63); l.words[w] == 0 {
		l.sum &^= 1 << w
	}
}

// next returns the first occupied slot at or after i (i < levelSlots), or -1.
func (l *wheelLevel) next(i int) int {
	w := i >> 6
	if m := l.words[w] & (^uint64(0) << (i & 63)); m != 0 {
		return w<<6 | bits.TrailingZeros64(m)
	}
	s := l.sum & (^uint64(0) << (w + 1)) // a shift by 64 is 0 in Go
	if s == 0 {
		return -1
	}
	w = bits.TrailingZeros64(s)
	return w<<6 | bits.TrailingZeros64(l.words[w])
}

// eventQueue is the Simulator's pending set. Its ~66 KB of slot heads and
// bitmaps are recycled through Pools, so a batch worker allocates one.
type eventQueue struct {
	n    int      // entries queued, cancelled included
	slot int64    // the current slot: at >> slotBits of every entry in cur
	head int      // next entry of cur
	cur  []*event // the current slot's entries, sorted by (at, seq)
	far  farHeap  // keys past the coarse horizon

	fine, coarse wheelLevel
}

func before(a, b *event) bool { return a.at < b.at || a.at == b.at && a.seq < b.seq }

// push queues e under its key e.at.
func (q *eventQueue) push(e *event) {
	if int64(e.at)>>slotBits < q.slot {
		q.rebase(int64(e.at) >> slotBits)
	}
	q.n++
	q.place(e)
}

// place puts e in the tier its key names against the current slot.
func (q *eventQueue) place(e *event) {
	s := int64(e.at) >> slotBits
	if s == q.slot {
		i := len(q.cur)
		q.cur = append(q.cur, e)
		for ; i > q.head && q.cur[i-1].at > e.at; i-- {
			q.cur[i] = q.cur[i-1]
		}
		q.cur[i] = e
		q.checkCur(i)
		return
	}
	switch d := s>>levelBits - q.slot>>levelBits; {
	case d == 0:
		q.fine.add(int(s&slotMask), e)
		q.check(e, tierFine, int(s&slotMask), q.slot)
	case d < levelSlots:
		q.coarse.add(int(s>>levelBits&slotMask), e)
		q.check(e, tierCoarse, int(s>>levelBits&slotMask), q.slot)
	default:
		heap.Push(&q.far, e)
		q.check(e, tierFar, 0, q.slot)
	}
}

// front returns the earliest entry without removing it, moving the current
// slot to its key. The queue must not be empty.
func (q *eventQueue) front() *event {
	if q.head == len(q.cur) {
		q.advance()
	}
	//parcelvet:allow pooldiscipline(the queue holds each event from newEvent to freeEvent; the Simulator frees what it pops)
	return q.cur[q.head]
}

// pop removes and returns the earliest entry. The queue must not be empty.
func (q *eventQueue) pop() *event {
	e := q.front()
	q.checkCur(q.head)
	if q.head++; q.head == len(q.cur) {
		q.cur = q.cur[:0]
		q.head = 0
	}
	q.n--
	//parcelvet:allow pooldiscipline(as front)
	return e
}

// advance makes the next non-empty slot current: the first one of the fine
// level, after cascading the next block into it once the fine level is dry.
// cur must be empty and the queue must not be.
func (q *eventQueue) advance() {
	if q.fine.sum == 0 {
		q.nextBlock()
	}
	i := q.fine.next(0)
	q.slot = q.slot&^slotMask | int64(i)
	for e := q.fine.head[i]; e != nil; e = e.next {
		q.cur = append(q.cur, e)
	}
	q.fine.clear(i)
	c := q.cur
	if len(c) > 1 {
		// Mostly newest first (see above): reversed, same-key direct pushes
		// are in order and the insertion sort only checks them.
		slices.Reverse(c)
		if len(c) <= 16 {
			for i := 1; i < len(c); i++ {
				for j := i; j > 0 && before(c[j], c[j-1]); j-- {
					c[j], c[j-1] = c[j-1], c[j]
				}
			}
		} else {
			slices.SortFunc(c, func(a, b *event) int { return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq)) })
		}
	}
	if queueDebug {
		for i := range c {
			q.checkCur(i)
		}
	}
}

// nextBlock moves the current slot to the first slot of the earliest block
// the coarse level or the far heap holds, and drops that block's entries
// into the fine level. The fine level must be empty.
func (q *eventQueue) nextBlock() {
	old := q.slot
	blk := old >> levelBits
	coarse, j := int64(math.MaxInt64), -1
	if q.coarse.sum != 0 {
		c := int(blk & slotMask)
		if j = q.coarse.next((c + 1) & slotMask); j < 0 {
			j = q.coarse.next(0)
		}
		coarse = blk + int64((j-c)&slotMask)
	}
	next := coarse
	if len(q.far) > 0 {
		next = min(next, int64(q.far[0].at)>>blockBits)
	}
	q.slot = next << levelBits
	if next == coarse {
		for e := q.coarse.head[j]; e != nil; {
			nx := e.next
			q.check(e, tierCoarse, j, old)
			i := int(int64(e.at) >> slotBits & slotMask)
			q.fine.add(i, e)
			q.check(e, tierFine, i, q.slot)
			e = nx
		}
		q.coarse.clear(j)
	}
	for len(q.far) > 0 && int64(q.far[0].at)>>blockBits == next {
		e := q.far[0]
		q.check(e, tierFar, 0, old)
		heap.Pop(&q.far)
		i := int(int64(e.at) >> slotBits & slotMask)
		q.fine.add(i, e)
		q.check(e, tierFine, i, q.slot)
	}
}

// farHeap is a container/heap on (at, seq).
type farHeap []*event

func (h farHeap) Len() int           { return len(h) }
func (h farHeap) Less(i, j int) bool { return before(h[i], h[j]) }
func (h farHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *farHeap) Push(x any)        { *h = append(*h, x.(*event)) }
func (h *farHeap) Pop() any {
	e := (*h)[len(*h)-1]
	*h = (*h)[:len(*h)-1]
	//parcelvet:allow pooldiscipline(heap.Pop's result is dropped: nextBlock moves the event from far[0] into the fine level)
	return e
}

// rebase moves the current slot down to slot and re-places every queued
// entry in seq order, as if it were scheduled anew, so that cur's in-place
// insertion still finds each one the highest seq of its key. Only a push
// below the current slot after RunUntil finds entries queued here, so the
// scratch slice and the sort are the rare path.
func (q *eventQueue) rebase(slot int64) {
	all := make([]*event, 0, q.n)
	all = append(all, q.cur[q.head:]...)
	q.cur = q.cur[:0]
	q.head = 0
	for _, l := range []*wheelLevel{&q.fine, &q.coarse} {
		for i := l.next(0); i >= 0; i = l.next(0) {
			for e := l.head[i]; e != nil; e = e.next {
				all = append(all, e)
			}
			l.clear(i)
		}
	}
	all = append(all, q.far...)
	q.far = q.far[:0]
	slices.SortFunc(all, func(a, b *event) int { return cmp.Compare(a.seq, b.seq) })
	q.slot = slot
	for _, e := range all {
		q.place(e)
	}
}

// reset readies a drained queue for the next simulator.
func (q *eventQueue) reset() {
	q.slot, q.head = 0, 0
	q.cur = q.cur[:0]
	q.far = q.far[:0]
}

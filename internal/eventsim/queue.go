package eventsim

import "time"

// queueEntry is one pending event. The ordering key (at, seq) is stored
// inline, so a sift compares and moves 24-byte entries inside one slice and
// never dereferences the *Event — a fleet-sized queue's events are spread
// across arena blocks, and chasing them was the dominant cost of every pop.
type queueEntry struct {
	at  time.Duration
	seq uint64
	ev  *Event
}

// before is the queue's total order: virtual time, then scheduling order.
// seq is unique per simulator, so no two entries compare equal and the pop
// sequence is a pure function of the pushes whatever the heap's shape.
func (a queueEntry) before(b queueEntry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// queueArity is the heap's branching factor. Four children per node halve
// the depth of a binary heap and keep a node's children within two cache
// lines; a pop costs up to three more compares per level, a push fewer
// levels, and simulations push exactly as often as they pop.
const queueArity = 4

// eventQueue is a d-ary min-heap of pending events ordered by before.
// Cancelled events stay queued until they surface (see Simulator.Step).
type eventQueue []queueEntry

// push inserts e, sifting it up from the last leaf.
func (q *eventQueue) push(e queueEntry) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / queueArity
		if !e.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	*q = h
	q.check(i)
}

// pop removes the earliest entry, (*q)[0]. The queue must not be empty.
func (q *eventQueue) pop() {
	h := *q
	n := len(h) - 1
	last := h[n]
	h[n] = queueEntry{}
	h = h[:n]
	// Sift the former last leaf down from the root.
	i := 0
	for {
		first := i*queueArity + 1
		if first >= n {
			break
		}
		min := first
		for c := first + 1; c < first+queueArity && c < n; c++ {
			if h[c].before(h[min]) {
				min = c
			}
		}
		if !h[min].before(last) {
			break
		}
		h[i] = h[min]
		i = min
	}
	if n > 0 {
		h[i] = last
	}
	*q = h
	q.check(i)
}

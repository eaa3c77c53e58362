package eventsim

import (
	"cmp"
	"math/bits"
	"slices"
	"time"
)

// queueEntry is one pending event. The key, at, is stored inline, so
// bucketing and the minimum scan read 16-byte entries inside one slice and
// never dereference the *event, which would cost a cache miss per entry.
type queueEntry struct {
	at time.Duration
	ev *event
}

// numBuckets is one bucket per possible bit length of at ^ base, 0..64.
const numBuckets = 65

// eventQueue is a radix heap: a monotone priority queue of pending events
// keyed on at. base is the last key popped, and an entry sits in bucket
// bits.Len64(at ^ base): bucket 0 holds the entries due at base, bucket k
// those whose key first differs from base at bit k-1.
//
// Invariant: every queued entry has at >= base. Step moves base to the key
// it fires, which is then now, so every later Schedule lands at or above it.
// RunUntil(t) may pop a cancelled head, or peek a live one, past t and then
// leave the clock at t; a push in [t, base) rebases the queue (rebase).
//
// Pop order is exactly (at, seq) although entries carry no seq: every
// bucket holds its entries in seq order. Pushes come in seq order; refill
// moves one bucket, in order, into the empty buckets below it; rebase
// re-pushes in seq order. Bucket 0 holds only entries due at base, so it is
// a FIFO and same-instant events fire in the order they were scheduled.
// Cancelled events stay queued until they surface (see Simulator.Step).
type eventQueue struct {
	base time.Duration
	n    int    // entries queued, cancelled included
	head int    // next entry of bucket 0
	mask uint64 // bit k-1 is set while bucket k (k >= 1) is non-empty

	buckets [numBuckets][]queueEntry
}

func bucketOf(at, base time.Duration) int { return bits.Len64(uint64(at ^ base)) }

// push queues ev under key at.
func (q *eventQueue) push(at time.Duration, ev *event) {
	if at < q.base {
		q.rebase(at)
	}
	k := bucketOf(at, q.base)
	q.buckets[k] = append(q.buckets[k], queueEntry{at: at, ev: ev})
	if k > 0 {
		q.mask |= 1 << (k - 1)
	}
	q.n++
	q.check(k, len(q.buckets[k])-1)
}

// front returns the earliest entry without removing it, moving base to its
// key. The queue must not be empty.
func (q *eventQueue) front() queueEntry {
	if len(q.buckets[0]) == 0 {
		q.refill()
	}
	return q.buckets[0][q.head]
}

// pop removes and returns the earliest entry. The queue must not be empty.
func (q *eventQueue) pop() queueEntry {
	e := q.front()
	q.check(0, q.head)
	q.head++
	if q.head == len(q.buckets[0]) {
		q.buckets[0] = q.buckets[0][:0]
		q.head = 0
	}
	q.n--
	return e
}

// refill empties the lowest non-empty bucket into the empty ones below it,
// with base moved to that bucket's minimum key — which therefore lands in
// bucket 0. Every other entry of the bucket lands strictly lower, so an
// entry moves at most 64 times in its life however long it waits.
func (q *eventQueue) refill() {
	k := bits.TrailingZeros64(q.mask) + 1
	b := q.buckets[k]
	lo := b[0].at
	for _, e := range b[1:] {
		if e.at < lo {
			lo = e.at
		}
	}
	q.base = lo
	for _, e := range b {
		j := bucketOf(e.at, lo)
		q.buckets[j] = append(q.buckets[j], e)
		if j > 0 {
			q.mask |= 1 << (j - 1)
		}
		q.check(j, len(q.buckets[j])-1)
	}
	q.buckets[k] = b[:0]
	q.mask &^= 1 << (k - 1)
}

// rebase moves base down to at and re-pushes every queued entry in seq
// order, as if it were scheduled anew, so each bucket stays in seq order.
// Only a push below base after RunUntil finds entries queued here, so the
// scratch slice and the sort are the rare path.
func (q *eventQueue) rebase(at time.Duration) {
	q.base = at
	if q.n == 0 {
		return
	}
	all := make([]queueEntry, 0, q.n)
	all = append(all, q.buckets[0][q.head:]...)
	q.buckets[0] = q.buckets[0][:0]
	q.head = 0
	for k := 1; k < numBuckets; k++ {
		all = append(all, q.buckets[k]...)
		q.buckets[k] = q.buckets[k][:0]
	}
	slices.SortFunc(all, func(a, b queueEntry) int { return cmp.Compare(a.ev.seq, b.ev.seq) })
	q.mask = 0
	q.n = 0
	for _, e := range all {
		q.push(e.at, e.ev)
	}
}

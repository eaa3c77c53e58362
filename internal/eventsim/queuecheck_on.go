//go:build simdebug

package eventsim

import "fmt"

// check verifies entry i of bucket k, the one a push, pop or refill just
// touched: its key matches its event, whose generation is a queued one (odd:
// the slot has not been recycled under the entry); it sits in the bucket its
// key names against base; and it orders after its bucket predecessor by seq,
// which is what keeps same-instant events FIFO. Every entry is checked each
// time it lands or leaves, at O(1) per check: a whole-queue walk per
// operation would make fleet-sized simulations quadratic.
func (q *eventQueue) check(k, i int) {
	b := q.buckets[k]
	e := b[i]
	if e.ev == nil || e.at != e.ev.at || e.ev.gen&1 == 0 {
		panic(fmt.Sprintf("eventsim: queue entry at %v in bucket %d does not match a queued event", e.at, k))
	}
	if want := bucketOf(e.at, q.base); k != want {
		panic(fmt.Sprintf("eventsim: entry at %v sits in bucket %d, want %d (base %v)", e.at, k, want, q.base))
	}
	lo := 0
	if k == 0 {
		lo = q.head
	}
	if i > lo && b[i-1].ev.seq >= e.ev.seq {
		panic(fmt.Sprintf("eventsim: bucket %d out of seq order: %d after %d", k, e.ev.seq, b[i-1].ev.seq))
	}
}

//go:build simdebug

package eventsim

import "fmt"

// check verifies the heap around the slot a push or pop just filled: every
// node on the path from i to the root carries its event's key and has no
// child ordering before it — which covers every entry either sift moved. (A
// whole-heap walk per operation would make fleet-sized simulations
// quadratic.)
func (q *eventQueue) check(i int) {
	h := *q
	for i < len(h) {
		if e := h[i]; e.ev == nil || e.at != e.ev.at || e.seq != e.ev.seq {
			panic(fmt.Sprintf("eventsim: queue entry %d key (%v, %d) does not match its event", i, e.at, e.seq))
		}
		for c := i*queueArity + 1; c <= i*queueArity+queueArity && c < len(h); c++ {
			if h[c].before(h[i]) {
				panic(fmt.Sprintf("eventsim: heap invariant broken: entry %d (%v, %d) orders before its parent %d", c, h[c].at, h[c].seq, i))
			}
		}
		if i == 0 {
			return
		}
		i = (i - 1) / queueArity
	}
}

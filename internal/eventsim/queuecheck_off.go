//go:build !simdebug

package eventsim

// check verifies the heap invariant around slot i after every push and pop
// under -tags simdebug (see queuecheck_on.go); it compiles to nothing
// otherwise.
func (q *eventQueue) check(int) {}

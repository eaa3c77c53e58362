//go:build !simdebug

package eventsim

// check verifies the entry a push, pop or refill just touched under -tags
// simdebug (see queuecheck_on.go); it compiles to nothing otherwise.
func (q *eventQueue) check(int, int) {}

//go:build !simdebug

package eventsim

// queueDebug gates the whole-slot loops of the wheel's checks; check and
// checkCur verify what a push, pop or cascade just touched under -tags
// simdebug (see queuecheck_on.go) and compile to nothing otherwise.
const queueDebug = false

func (q *eventQueue) check(*event, int, int, int64) {}

func (q *eventQueue) checkCur(int) {}

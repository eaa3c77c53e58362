// Package noclosure_memo is the noclosure fixture for the discovery memo
// class: the shared script environment hands timers to its host and never
// schedules itself; a capturing closure scheduled from the per-script path
// would allocate once per script on every page load of a sweep.
package noclosure_memo

type clock struct{}

func (c *clock) Schedule(delay int64, fn func())               {}
func (c *clock) ScheduleArgAt(at int64, fn func(any), arg any) {}

type effect struct{ url string }

type host interface{ SetTimeout(ms float64, e *effect) }

func badApplyLater(c *clock, effects []effect, cost int64) {
	c.Schedule(cost, func() { _ = effects[0].url }) // want "closure passed to Schedule captures \\[effects\\]"
}

func okHandToHost(h host, e *effect, ms float64) { h.SetTimeout(ms, e) }

func applyStep(arg any) { _ = arg.(*effect).url }

func okTypedArg(c *clock, e *effect, at int64) {
	c.ScheduleArgAt(at, applyStep, e)
}

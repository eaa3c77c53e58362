package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are offsets
// from the tracer's epoch; Parent indexes the span that caused this one (-1
// for a root); spans of one page load share Load.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Load   int64         `json:"load"`
}

// tracer keeps spans in memory until the benchmark ends. A nil *tracer is
// the untraced pass: every method is a no-op, so call sites need no branch.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 when untraced).
func (t *tracer) begin(name string, parent int, load int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Load: load})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent int, load int64, fn func()) {
	id := t.begin(name, parent, load)
	fn()
	t.end(id)
}

// add records a span whose endpoints were observed elsewhere (a socket
// wrapper's first-byte timestamp, say).
func (t *tracer) add(name string, parent int, load int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.epoch), End: end.Sub(t.epoch), Parent: parent, Load: load})
	t.mu.Unlock()
}

// spanTotals aggregates the closed spans of one name.
type spanTotals struct {
	Count int           `json:"count"`
	Total time.Duration `json:"total_ns"`
	// Self is Total minus the part of each span its child spans cover.
	Self time.Duration `json:"self_ns"`
}

// totals reduces the recorded spans by name. A span's self time is its
// duration minus the union of its children's intervals, clipped to the span
// — overlapping children (parallel work) are not subtracted twice.
func (t *tracer) totals() map[string]spanTotals {
	out := map[string]spanTotals{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	children := make(map[int][][2]time.Duration)
	for _, s := range spans {
		if s.End >= 0 && s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	for id, s := range spans {
		if s.End < 0 {
			continue
		}
		tot := out[s.Name]
		tot.Count++
		tot.Total += s.End - s.Start
		tot.Self += s.End - s.Start - covered(children[id], s.Start, s.End)
		out[s.Name] = tot
	}
	return out
}

// covered returns how much of [lo, hi] the intervals cover.
func covered(ivs [][2]time.Duration, lo, hi time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum time.Duration
	at := lo
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < at {
			a = at
		}
		if b > hi {
			b = hi
		}
		if b > a {
			sum += b - a
			at = b
		}
	}
	return sum
}

// mean returns the mean duration of the named spans, in unit (0 if none).
func (tot spanTotals) mean(unit time.Duration) float64 {
	if tot.Count == 0 {
		return 0
	}
	return float64(tot.Total) / float64(tot.Count) / float64(unit)
}

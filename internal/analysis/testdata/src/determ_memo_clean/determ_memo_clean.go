// Package determ_memo_clean is the negative determinism fixture for the
// discovery memo class: the sanctioned idioms — timers and random draws
// handed to the host, read-sets kept in first-seen order beside their lookup
// map, sorted listings — produce no findings.
package determ_memo_clean

import "sort"

type host interface {
	SetTimeout(ms float64)
	Rand(n int) int
}

type outcome struct {
	readOrder []string
	readSeen  map[string]bool
}

func recordTimer(h host, ms float64) { h.SetTimeout(ms) }

func builtinRand(h host, n int) int { return h.Rand(n) }

func (o *outcome) noteRead(name string) {
	if o.readSeen[name] {
		return
	}
	o.readSeen[name] = true
	o.readOrder = append(o.readOrder, name)
}

func (o *outcome) names() []string {
	names := make([]string, 0, len(o.readSeen))
	for name := range o.readSeen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

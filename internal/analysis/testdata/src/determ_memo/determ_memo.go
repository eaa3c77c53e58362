// Package determ_memo is the positive determinism fixture for the discovery
// memo class: a recorded script outcome is replayed on another host, another
// session and another run, so every shortcut that makes a recording depend
// on when or where it was made — wall-clock timer deadlines, global-RNG
// rand() builtins, map-ordered effect or read-set lists — must be flagged.
package determ_memo

import (
	"fmt"
	"math/rand"
	"time"
)

type effect struct {
	url string
	due time.Time
}

type outcome struct {
	effects []effect
	reads   map[string]string
}

func recordTimer(o *outcome, ms int) {
	due := time.Now().Add(time.Duration(ms) * time.Millisecond) // want "call to time.Now in sim-deterministic package"
	o.effects = append(o.effects, effect{due: due})
}

func builtinRand(n int) int {
	return rand.Intn(n) // want "top-level rand.Intn draws from the global RNG"
}

func readSet(o *outcome) []string {
	var names []string
	for name := range o.reads { // want "map iteration order flows into returned slice \"names\""
		names = append(names, name)
	}
	return names
}

func dump(o *outcome) {
	for name, v := range o.reads { // want "map-range loop feeds fmt output"
		fmt.Println(name, v)
	}
}

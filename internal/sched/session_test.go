package sched

import (
	"fmt"
	"strings"
	"testing"
)

// TestSessionSteps drives one script through the session under each schedule
// and checks, input by input, what was released (reason[urls]), whether a
// quiet window was handed out, and whether the page completed. The script
// covers a first load, a resume manifest and a revisit on one session; the
// first page completes by its quiet window, the revisit by Quiescent.
func TestSessionSteps(t *testing.T) {
	const none = ""
	all := func(s string) [3]string { return [3]string{s, s, s} }
	type step struct {
		op  string    // start | collect | onload | quiet | quiescent
		arg string    // start: manifest; collect: URL; quiet: last | stale
		rel [3]string // releases under IND, 512K, ONLD
		arm bool      // a quiet window was handed out
		end bool      // the page completed
	}
	script := []step{
		{op: "start"},
		// Before onload: IND pushes, 512K fills, ONLD holds; nothing is armed.
		{op: "collect", arg: "a", rel: [3]string{"object[a]", none, none}},
		{op: "collect", arg: "big", rel: [3]string{"object[big]", "threshold[a big]", none}},
		{op: "collect", arg: "b", rel: [3]string{"object[b]", none, none}},
		{op: "onload", rel: [3]string{none, "onload[b]", "onload[a big b]"}, arm: true},
		// After onload every arrival is pushed on its own and re-arms.
		{op: "collect", arg: "c", rel: all("object[c]"), arm: true},
		{op: "collect", arg: "c", rel: all(none), arm: true}, // mirrored before completion
		{op: "quiet", arg: "stale", rel: all(none)},
		{op: "quiet", arg: "last", rel: all(none), end: true},
		{op: "quiet", arg: "last", rel: all(none)}, // repeated
		// After completion: stragglers go out individually, nothing is armed.
		{op: "collect", arg: "d", rel: all("complete[d]")},
		{op: "collect", arg: "d", rel: all(none)}, // mirrored after completion
		// A revisit keeps the mirror and resets the page.
		{op: "start", arg: "m"},
		{op: "quiet", arg: "last", rel: all(none)}, // the first page's window
		{op: "quiescent", rel: all(none)},          // before onload: nothing to prove
		{op: "collect", arg: "a", rel: all(none)},
		{op: "collect", arg: "m", rel: all(none)}, // listed by the manifest
		{op: "collect", arg: "e", rel: [3]string{"object[e]", none, none}},
		{op: "quiescent", rel: all(none)}, // still before onload: ONLD keeps holding e
		{op: "onload", rel: [3]string{none, "onload[e]", "onload[e]"}, arm: true},
		{op: "collect", arg: "a", rel: all(none), arm: true},
		// Quiescence completes the page as the last window would have, once.
		{op: "quiescent", rel: all(none), end: true},
		{op: "quiescent", rel: all(none)},
		{op: "quiet", arg: "last", rel: all(none)}, // the window it pre-empted is inert
		{op: "quiet", arg: "stale", rel: all(none)},
		{op: "collect", arg: "f", rel: all("complete[f]")},
		{op: "onload", rel: all(none)}, // nothing armed after complete
	}
	size := func(url string) int {
		if url == "big" {
			return 512 << 10
		}
		return 100
	}
	for ci, cfg := range []Config{ConfigIND, Config512K, ConfigONLD} {
		t.Run(cfg.String(), func(t *testing.T) {
			var rel []string
			var relBytes int64
			s := NewSession(func(items []Item, reason FlushReason) {
				urls := make([]string, len(items))
				for i, it := range items {
					urls[i] = it.URL
					relBytes += int64(len(it.Body))
				}
				rel = append(rel, fmt.Sprintf("%v[%s]", reason, strings.Join(urls, " ")))
			}, 0)
			var armed []int
			collected, ends := 0, 0
			for i, st := range script {
				rel = rel[:0]
				var got Step
				switch st.op {
				case "start":
					s.StartPage(cfg, strings.Fields(st.arg))
					if s.Completed() {
						t.Fatalf("step %d: page complete right after StartPage", i)
					}
				case "collect":
					collected++
					got = s.Collected(Item{URL: st.arg, Body: make([]byte, size(st.arg))})
				case "onload":
					got = s.OnLoad()
				case "quiet":
					gen := armed[len(armed)-1]
					if st.arg == "stale" {
						gen = armed[0]
					}
					got = s.QuietFired(gen)
				case "quiescent":
					got = s.Quiescent()
				}
				if r := strings.Join(rel, " "); r != st.rel[ci] {
					t.Errorf("step %d (%s %s): released %q, want %q", i, st.op, st.arg, r, st.rel[ci])
				}
				if (got.Quiet != 0) != st.arm || got.Complete != st.end {
					t.Errorf("step %d (%s %s): step %+v, want arm=%v complete=%v", i, st.op, st.arg, got, st.arm, st.end)
				}
				if got.Quiet != 0 {
					if n := len(armed); n > 0 && got.Quiet <= armed[n-1] {
						t.Errorf("step %d: generation %d does not supersede %d", i, got.Quiet, armed[n-1])
					}
					armed = append(armed, got.Quiet)
				}
				if got.Complete {
					ends++
					if !s.Completed() {
						t.Errorf("step %d: completed, but Completed() is false", i)
					}
				}
			}
			if ends != 2 {
				t.Errorf("%d completions over two pages, want 2", ends)
			}
			if s.ObjectsPushed+s.Skipped != collected {
				t.Errorf("pushed %d + skipped %d != collected %d", s.ObjectsPushed, s.Skipped, collected)
			}
			if s.BytesPushed != relBytes {
				t.Errorf("BytesPushed = %d, released %d", s.BytesPushed, relBytes)
			}
		})
	}
}

// TestCountsFetch pins the one booking rule both arms use.
func TestCountsFetch(t *testing.T) {
	var c Counts
	c.Fetch(true, true, false)   // own origin transfer: miss
	c.Fetch(true, false, false)  // resident entry or joined flight: hit
	c.Fetch(true, false, true)   // stale serve: a hit, tagged
	c.Fetch(false, false, false) // failed: miss
	if want := (Counts{CacheHits: 2, CacheMisses: 2, StaleServes: 1}); c != want {
		t.Errorf("booked %+v, want %+v", c, want)
	}
}

func TestCritical(t *testing.T) {
	if !Critical("text/html; charset=utf-8") || !Critical("application/json") || Critical("image/png") {
		t.Error("html and json are render-blocking, png is not")
	}
}

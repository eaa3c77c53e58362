package sched

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// TestSessionSteps drives scripts through the session and checks, input by
// input, what was streamed (reason[urls], url@offset for a resumed stream),
// what was shed, what is parked, whether a quiet window was handed out, and
// whether the page completed. The schedule script runs under each schedule
// with an unbounded budget: a first load, a resume manifest and a revisit on
// one session; the first page completes by its quiet window, the revisit by
// Quiescent. The admission script runs under IND against a 240-byte session
// budget and a 300-byte proxy budget that other sessions ("hog") also draw on;
// after every input the budget holds exactly the hog's bytes plus the
// session's streamed bytes not yet drained.
func TestSessionSteps(t *testing.T) {
	const none = ""
	all := func(s string) [3]string { return [3]string{s, s, s} }
	type step struct {
		op     string    // start | collect | request | onload | quiet | quiescent | drain | hog
		arg    string    // start: manifest, url:bytes for a partial; collect, request: URL; quiet: last | stale; drain, hog: bytes
		rel    [3]string // streamed under each of the script's schedules
		arm    bool      // a quiet window was handed out
		end    bool      // the page completed
		shed   string    // shed by this input
		parked string    // parked after it
	}
	schedule := []step{
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
	admission := []step{
		{op: "start", arg: "r:40"},
		{op: "collect", arg: "r", rel: all("object[r@40]")}, // the client holds 40: 60 queued
		{op: "collect", arg: "a", rel: all("object[a]")},    // 160 queued
		{op: "collect", arg: "b", parked: "b"},              // 260 > 240: parks
		{op: "collect", arg: "c", parked: "b c"},            // behind b: order survives
		{op: "onload", arm: true, parked: "b c"},
		{op: "quiescent", parked: "b c"}, // declined: the window is the backlog's time to drain
		// Under half the budget the backlog is admitted again: b fits, c waits.
		{op: "drain", arg: "60", rel: all("drained[b]"), parked: "c"},
		{op: "hog", arg: "250", parked: "c"},
		// Nothing queued never parks: beyond the proxy budget c is shed.
		{op: "drain", arg: "200", shed: "c"},
		{op: "hog", arg: "-250"},
		{op: "collect", arg: "d", rel: all("object[d]"), arm: true},
		{op: "collect", arg: "e", rel: all("object[e]"), arm: true},
		{op: "collect", arg: "f", arm: true, parked: "f"},
		// Completion sheds what is still parked.
		{op: "quiet", arg: "last", end: true, shed: "f"},
		// A straggler parks like any release and drains like one.
		{op: "collect", arg: "g", parked: "g"},
		{op: "drain", arg: "200", rel: all("drained[g]")},
		// A missing-object request streams at once, booked as a push: past an
		// exhausted budget and past the parked backlog.
		{op: "hog", arg: "200"},
		{op: "collect", arg: "h", parked: "h"}, // 300 of 300 reserved: h waits behind g
		{op: "request", arg: "c", rel: all("requested[c]"), parked: "h"},
		{op: "hog", arg: "-200", parked: "h"},
		{op: "drain", arg: "100", rel: all("drained[h]")},
		{op: "drain", arg: "200"}, // c's and h's bytes: the budget is back to 0
	}
	size := func(url string) int {
		if url == "big" {
			return 512 << 10
		}
		return 100
	}
	for _, sc := range []struct {
		name          string
		cfgs          []Config
		limit, budget int64
		ends          int
		steps         []step
	}{
		{"", []Config{ConfigIND, Config512K, ConfigONLD}, 0, 0, 2, schedule},
		{"admission", []Config{ConfigIND}, 240, 300, 1, admission},
	} {
		for ci, cfg := range sc.cfgs {
			name := cfg.String()
			if sc.name != "" {
				name = sc.name + "/" + name
			}
			t.Run(name, func(t *testing.T) {
				var rel []string
				var streamed, shed int
				var bytes, queued, hogged int64
				shared := NewBudget(sc.budget)
				s := NewSession(func(items []Item, reason FlushReason) {
					urls := make([]string, len(items))
					for i, it := range items {
						urls[i] = it.URL
						if it.Offset > 0 {
							urls[i] += "@" + strconv.FormatInt(it.Offset, 10)
						}
						bytes += int64(len(it.Body)) - it.Offset
						queued += int64(len(it.Body)) - it.Offset
					}
					streamed += len(items)
					rel = append(rel, fmt.Sprintf("%v[%s]", reason, strings.Join(urls, " ")))
				}, 0, sc.limit, shared)
				var armed []int
				collected, requested, ends := 0, 0, 0
				for i, st := range sc.steps {
					rel = rel[:0]
					n, _ := strconv.ParseInt(st.arg, 10, 64)
					var got Step
					switch st.op {
					case "start":
						var have []string
						var partial []Partial
						for _, f := range strings.Fields(st.arg) {
							if url, held, ok := strings.Cut(f, ":"); ok {
								b, _ := strconv.ParseInt(held, 10, 64)
								partial = append(partial, Partial{URL: url, Bytes: b})
							} else {
								have = append(have, f)
							}
						}
						s.StartPage(cfg, have, partial)
						if s.Completed() {
							t.Fatalf("step %d: page complete right after StartPage", i)
						}
					case "collect":
						collected++
						got = s.Collected(Item{URL: st.arg, Body: make([]byte, size(st.arg))})
					case "request":
						requested++
						s.Requested(Item{URL: st.arg, Body: make([]byte, size(st.arg))})
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
					case "drain":
						queued -= n
						got = s.Drained(n)
					case "hog":
						hogged += n
						shared.used.Add(n)
					}
					shed += len(got.Shed)
					if r := strings.Join(rel, " "); r != st.rel[ci] {
						t.Errorf("step %d (%s %s): streamed %q, want %q", i, st.op, st.arg, r, st.rel[ci])
					}
					if sh := strings.Join(got.Shed, " "); sh != st.shed {
						t.Errorf("step %d (%s %s): shed %q, want %q", i, st.op, st.arg, sh, st.shed)
					}
					if p := parkedURLs(s); p != st.parked {
						t.Errorf("step %d (%s %s): parked %q, want %q", i, st.op, st.arg, p, st.parked)
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
					if err := checkBooks(s, streamed, shed, bytes); err != nil {
						t.Errorf("step %d (%s %s): %v", i, st.op, st.arg, err)
					}
					if u := shared.Used(); u != hogged+queued {
						t.Errorf("step %d (%s %s): budget holds %d bytes, want %d hogged + %d queued", i, st.op, st.arg, u, hogged, queued)
					}
				}
				if ends != sc.ends {
					t.Errorf("%d completions, want %d", ends, sc.ends)
				}
				if released := s.ObjectsPushed + s.Shed; released+s.Skipped != collected+requested || len(s.Parked()) != 0 {
					t.Errorf("released %d + skipped %d != collected %d + requested %d (%d parked)", released, s.Skipped, collected, requested, len(s.Parked()))
				}
				if st := s.Close(); len(st.Shed) != 0 {
					t.Errorf("Close shed %q with nothing parked", st.Shed)
				}
				if u := shared.Used(); u != 0 {
					t.Errorf("budget holds %d bytes after Close", u)
				}
			})
		}
	}
}

// parkedURLs lists the session's backlog, in order.
func parkedURLs(s *Session) string {
	urls := make([]string, len(s.Parked()))
	for i, it := range s.Parked() {
		urls[i] = it.URL
	}
	return strings.Join(urls, " ")
}

// checkBooks holds the session's books to what its driver saw: streams and
// their bytes after resume offsets, sheds, and the booking rule — every
// released object is streamed, shed or parked, and Deferred counts objects
// parked at least once, so never more than that sum.
func checkBooks(s *Session, streamed, shed int, bytes int64) error {
	c := s.Counts
	if c.ObjectsPushed != streamed || c.Shed != shed || c.BytesPushed != bytes {
		return fmt.Errorf("booked %d pushed (%d B), %d shed; the driver saw %d streamed (%d B), %d shed",
			c.ObjectsPushed, c.BytesPushed, c.Shed, streamed, bytes, shed)
	}
	if released := c.ObjectsPushed + c.Shed + len(s.parked); c.Deferred > released {
		return fmt.Errorf("deferred %d of %d released", c.Deferred, released)
	}
	return nil
}

// TestAdmissionSeeds is admission's seed-enumerated, clock-free property
// test: two sessions share one Budget, and each seed draws the budgets, the
// schedules, object sizes and resume offsets, then interleaves Collected,
// Requested, OnLoad, Drained, QuietFired, Quiescent and Close across them.
// After every step: streamed order is release order, and a requested object
// streams whole at once; each released object is streamed, shed or parked —
// exactly one, parked being the tail of what was released; a session with
// nothing queued has nothing parked; each queue is what was streamed less
// what was drained and the budget holds their sum, within its limit plus the
// requested bytes that may still be queued; the books match what the driver
// saw. After both Closes the budget is back to 0. A failing seed is printed;
// it becomes a row of regressions.
func TestAdmissionSeeds(t *testing.T) {
	var regressions []int64
	seeds := regressions
	for seed := int64(1); seed <= 500; seed++ {
		seeds = append(seeds, seed)
	}
	for _, seed := range seeds {
		if err := admissionSeed(seed); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// admissionArm is one session of an admission seed and what its driver saw.
type admissionArm struct {
	s        *Session
	size     map[string]int
	offset   map[string]int64
	fresh    []string          // not yet collected, in collection order
	order    []string          // collected past the mirror: release order
	pos      map[string]int    // index in order
	outcome  map[string]string // streamed | shed
	last     int               // release position of the last stream
	gen      int               // last quiet window handed out
	streamed int
	shed     int
	resumed  int
	bytes    int64
	queued   int64 // streamed bytes not yet drained
	// requested counts Requested answers streamed; forced is their bytes
	// since the queue was last empty, the most they can hold past the limit.
	requested int
	forced    int64
	parked    map[string]bool // every object seen parked
	err       error
}

func admissionSeed(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	pick := func(vals ...int64) int64 { return vals[rng.Intn(len(vals))] }
	limit := pick(0, 200, 500, 1000)
	shared := NewBudget(limit)
	cfgs := []Config{ConfigIND, {Policy: Threshold, ThresholdBytes: 300}, ConfigONLD}
	arms := make([]*admissionArm, 2)
	for i := range arms {
		a := &admissionArm{size: map[string]int{}, offset: map[string]int64{}, pos: map[string]int{},
			outcome: map[string]string{}, parked: map[string]bool{}, last: -1}
		a.s = NewSession(func(items []Item, reason FlushReason) {
			for _, it := range items {
				n := int64(len(it.Body)) - it.Offset
				a.bytes += n
				a.queued += n
				if reason == FlushRequested {
					if it.Offset != 0 {
						a.fail("requested %s streamed at offset %d", it.URL, it.Offset)
					}
					a.requested++
					a.forced += n
					continue
				}
				switch {
				case a.outcome[it.URL] != "":
					a.fail("%s streamed after it was %s", it.URL, a.outcome[it.URL])
				case a.pos[it.URL] <= a.last:
					a.fail("%s streamed out of release order", it.URL)
				case it.Offset != min(a.offset[it.URL], int64(len(it.Body))):
					a.fail("%s streamed at offset %d, the client holds %d", it.URL, it.Offset, a.offset[it.URL])
				}
				a.outcome[it.URL], a.last = "streamed", a.pos[it.URL]
				a.streamed++
				if it.Offset > 0 {
					a.resumed++
				}
			}
		}, 0, pick(0, 150, 300, 600), shared)
		var partial []Partial
		for u := 0; u < 30; u++ {
			url := fmt.Sprintf("s%d/%d", i, u)
			a.fresh = append(a.fresh, url)
			a.size[url] = rng.Intn(400)
			if rng.Intn(4) == 0 {
				a.offset[url] = rng.Int63n(450) + 1
				partial = append(partial, Partial{URL: url, Bytes: a.offset[url]})
			}
		}
		a.s.StartPage(cfgs[rng.Intn(len(cfgs))], nil, partial)
		arms[i] = a
	}
	for step := 0; step < 120; step++ {
		a := arms[rng.Intn(len(arms))]
		var st Step
		switch r := rng.Intn(21); {
		case r < 8:
			if released := a.released(); rng.Intn(5) == 0 && released > 0 {
				// A mirrored object: skipped, whatever its outcome.
				url := a.order[rng.Intn(released)]
				st = a.s.Collected(Item{URL: url, Body: make([]byte, a.size[url])})
			} else if len(a.fresh) > 0 {
				url := a.fresh[0]
				a.fresh = a.fresh[1:]
				a.pos[url] = len(a.order)
				a.order = append(a.order, url)
				st = a.s.Collected(Item{URL: url, Body: make([]byte, a.size[url])})
			}
		case r < 10:
			st = a.s.OnLoad()
		case r < 15:
			n := rng.Int63n(a.queued + 1)
			if rng.Intn(3) == 0 {
				n = a.queued
			}
			a.queued -= n
			if a.queued == 0 {
				a.forced = 0
			}
			st = a.s.Drained(n)
		case r < 17:
			st = a.s.QuietFired(a.gen - rng.Intn(2))
		case r < 19:
			st = a.s.Quiescent()
		case r < 20:
			a.request(rng)
		default:
			a.close()
		}
		a.apply(st)
		if err := checkArms(arms, shared, limit); err != nil {
			return fmt.Errorf("step %d: %v", step, err)
		}
	}
	for _, a := range arms {
		a.close()
	}
	if err := checkArms(arms, shared, limit); err != nil {
		return fmt.Errorf("after Close: %v", err)
	}
	if u := shared.Used(); u != 0 {
		return fmt.Errorf("budget holds %d bytes after both Closes", u)
	}
	return nil
}

func (a *admissionArm) fail(format string, args ...any) {
	if a.err == nil {
		a.err = fmt.Errorf(format, args...)
	}
}

// released is how many objects the schedule has released: a prefix of order.
func (a *admissionArm) released() int { return a.streamed + a.shed + len(a.s.Parked()) }

// apply carries out a Step as a driver would: a window and the sheds.
func (a *admissionArm) apply(st Step) {
	if st.Quiet != 0 {
		a.gen = st.Quiet
	}
	for _, url := range st.Shed {
		if a.outcome[url] != "" {
			a.fail("%s shed after it was %s", url, a.outcome[url])
		}
		a.outcome[url] = "shed"
		a.shed++
	}
}

// request asks for an object the client is missing: one it was told to
// fetch itself (shed), or one the proxy never collected.
func (a *admissionArm) request(rng *rand.Rand) {
	var shed []string
	for _, url := range a.order {
		if a.outcome[url] == "shed" {
			shed = append(shed, url)
		}
	}
	url := fmt.Sprintf("req%d", a.requested)
	if len(shed) > 0 && rng.Intn(2) == 0 {
		url = shed[rng.Intn(len(shed))]
	}
	a.s.Requested(Item{URL: url, Body: make([]byte, rng.Intn(400))})
}

// close tears the session down.
func (a *admissionArm) close() {
	a.queued, a.forced = 0, 0
	a.apply(a.s.Close())
}

// checkArms holds both sessions and their budget to the properties.
func checkArms(arms []*admissionArm, shared *Budget, limit int64) error {
	var queued, forced int64
	for i, a := range arms {
		s := a.s
		if a.err != nil {
			return fmt.Errorf("session %d: %v", i, a.err)
		}
		parked := s.Parked()
		released := a.released()
		if released > len(a.order) {
			return fmt.Errorf("session %d released %d of %d collected", i, released, len(a.order))
		}
		decided := released - len(parked)
		for j, it := range parked {
			if it.URL != a.order[decided+j] {
				return fmt.Errorf("session %d: parked %q is not the tail %q of what was released", i, parkedURLs(s), a.order[decided:released])
			}
			a.parked[it.URL] = true
		}
		for _, url := range a.order[:decided] {
			if a.outcome[url] == "" {
				return fmt.Errorf("session %d: released %s neither streamed, shed nor parked", i, url)
			}
		}
		if len(parked) > 0 && s.queued == 0 {
			return fmt.Errorf("session %d parked %q with nothing queued", i, parkedURLs(s))
		}
		if s.queued != a.queued {
			return fmt.Errorf("session %d queues %d bytes, its driver holds %d", i, s.queued, a.queued)
		}
		if err := checkBooks(s, a.streamed+a.requested, a.shed, a.bytes); err != nil {
			return fmt.Errorf("session %d: %v", i, err)
		}
		if s.Resumed != a.resumed || s.Deferred < len(a.parked) {
			return fmt.Errorf("session %d booked %d resumed, %d deferred; the driver saw %d and %d parked",
				i, s.Resumed, s.Deferred, a.resumed, len(a.parked))
		}
		queued += s.queued
		forced += a.forced
	}
	if u := shared.Used(); u != queued || limit > 0 && u > limit+forced {
		return fmt.Errorf("budget holds %d bytes of %d (+%d requested); the sessions queue %d", u, limit, forced, queued)
	}
	return nil
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

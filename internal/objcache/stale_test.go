package objcache

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

func staleCache(freshFor, negTTL time.Duration) *Cache {
	return New(Config{Capacity: 1 << 20, Segments: 1, FreshFor: freshFor, NegTTL: negTTL})
}

func sobj(url, body string) Object {
	return Object{URL: url, ContentType: "text/html", Status: 200, Validator: "v-" + body, Body: []byte(body)}
}

func TestProbeAtFreshnessWindow(t *testing.T) {
	c := staleCache(10*time.Second, 0)
	c.PutAt(sobj("http://a.com/x", "one"), 5*time.Second)

	if _, lk := c.ProbeAt("http://a.com/x", 6*time.Second); lk != LookupFresh {
		t.Fatalf("inside window: %v", lk)
	}
	if o, lk := c.ProbeAt("http://a.com/x", 20*time.Second); lk != LookupStale || string(o.Body) != "one" {
		t.Fatalf("past window: %v, body %q", lk, o.Body)
	}
	if _, lk := c.ProbeAt("http://a.com/other", 0); lk != LookupMiss {
		t.Fatalf("missing url: %v", lk)
	}
}

func TestZeroFreshForNeverStale(t *testing.T) {
	c := staleCache(0, 0)
	c.PutAt(sobj("http://a.com/x", "one"), 0)
	if _, lk := c.ProbeAt("http://a.com/x", 1000*time.Hour); lk != LookupFresh {
		t.Fatalf("FreshFor=0 entry went stale: %v", lk)
	}
}

func TestMarkStaleForcesRevalidation(t *testing.T) {
	c := staleCache(time.Hour, 0)
	c.PutAt(sobj("http://a.com/x", "one"), 0)
	c.MarkStale("http://a.com/x")
	if _, lk := c.ProbeAt("http://a.com/x", time.Second); lk != LookupStale {
		t.Fatalf("marked entry not stale: %v", lk)
	}
	// A successful re-store clears the mark.
	c.PutAt(sobj("http://a.com/x", "one"), 2*time.Second)
	if _, lk := c.ProbeAt("http://a.com/x", 3*time.Second); lk != LookupFresh {
		t.Fatalf("re-stored entry still stale: %v", lk)
	}
}

// lead begins a fetch of url at now and requires it to lead a new flight.
func lead(t *testing.T, c *Cache, url string, now time.Duration, wake func(Result)) *Flight {
	t.Helper()
	res, f := c.Begin(url, now, wake)
	if f == nil || res.Outcome != OutcomePending {
		t.Fatalf("Begin(%s, %v) = %+v, want to lead a flight", url, now, res)
	}
	return f
}

// failAt leads a flight for url at now, settles it with an origin failure and
// returns how the leader resolved.
func failAt(t *testing.T, c *Cache, url string, now time.Duration) (got Result) {
	t.Helper()
	lead(t, c, url, now, func(r Result) { got = r }).Settle(Object{}, errors.New("origin down"), now)
	return got
}

// refusedAt reports whether a fetch of url at now is answered inside a
// negative-cache window (served stale or refused) instead of leading a flight;
// a flight it opened is settled with a 404, which the cache does not admit.
func refusedAt(c *Cache, url string, now time.Duration) (Result, bool) {
	res, f := c.Begin(url, now, func(Result) {})
	if f != nil {
		f.Settle(Object{URL: url, Status: 404}, nil, now)
		return res, false
	}
	return res, true
}

func TestNegativeCacheWindow(t *testing.T) {
	c := staleCache(0, 5*time.Second)
	failAt(t, c, "http://a.com/x", 10*time.Second)
	if res, refused := refusedAt(c, "http://a.com/x", 12*time.Second); !refused || !errors.Is(res.Err, ErrNegativeCached) {
		t.Fatalf("window not active at +2s: %+v", res)
	}
	if _, refused := refusedAt(c, "http://a.com/x", 15*time.Second); refused {
		t.Fatal("window active at exactly TTL")
	}
	// Expired windows stay inactive.
	if _, refused := refusedAt(c, "http://a.com/x", 16*time.Second); refused {
		t.Fatal("window active after expiry")
	}
	st := c.Stats()
	if st.NegHits != 1 {
		t.Fatalf("NegHits = %d, want 1", st.NegHits)
	}
}

func TestNoteFailureNoopWithoutNegTTL(t *testing.T) {
	c := staleCache(0, 0)
	failAt(t, c, "http://a.com/x", 0)
	if _, refused := refusedAt(c, "http://a.com/x", 0); refused {
		t.Fatal("negative caching active with NegTTL=0")
	}
}

func TestPutClearsNegativeWindow(t *testing.T) {
	c := staleCache(500*time.Millisecond, time.Minute)
	failAt(t, c, "http://a.com/x", 0)
	c.PutAt(sobj("http://a.com/x", "recovered"), time.Second)
	// The entry is stale again by 2 s; with the window still up it would be
	// served stale instead of revalidated.
	if _, refused := refusedAt(c, "http://a.com/x", 2*time.Second); refused {
		t.Fatal("successful store left the negative window up")
	}
}

func TestRejectedPutDoesNotRefresh(t *testing.T) {
	c := staleCache(10*time.Second, time.Minute)
	c.PutAt(sobj("http://a.com/x", "one"), 0)
	failAt(t, c, "http://a.com/x", 15*time.Second)
	// A 503 response must neither refresh the stale entry nor clear the
	// negative window.
	c.PutAt(Object{URL: "http://a.com/x", Status: 503, Validator: "err", Body: []byte("oops")}, 16*time.Second)
	if _, lk := c.ProbeAt("http://a.com/x", 17*time.Second); lk != LookupStale {
		t.Fatalf("rejected store refreshed entry: %v", lk)
	}
	if res, refused := refusedAt(c, "http://a.com/x", 17*time.Second); !refused || res.Outcome != OutcomeStale {
		t.Fatalf("rejected store cleared negative window: %+v", res)
	}
}

func TestServeStaleCountsAndServes(t *testing.T) {
	c := staleCache(time.Second, 0)
	c.PutAt(sobj("http://a.com/x", "one"), 0)
	if res := failAt(t, c, "http://a.com/x", 5*time.Second); res.Outcome != OutcomeStale || string(res.Obj.Body) != "one" {
		t.Fatalf("failed revalidation resolved %+v, want the stale body", res)
	}
	if res := failAt(t, c, "http://a.com/none", 5*time.Second); res.Outcome != OutcomeFailed || res.Err == nil {
		t.Fatalf("served stale for absent key: %+v", res)
	}
	if st := c.Stats(); st.StaleServes != 1 {
		t.Fatalf("StaleServes = %d, want 1", st.StaleServes)
	}
}

// TestFlightWakesContinuationAndBlockingJoiners joins one flight both ways —
// a continuation registered through Begin and a caller blocked in
// GetOrFetchStale — and settles it once with a success and once with a
// failure over a stale entry: leader and both joiners get the one resolution,
// the leader first.
func TestFlightWakesContinuationAndBlockingJoiners(t *testing.T) {
	const url = "http://a.com/x"
	for _, tc := range []struct {
		name string
		err  error
		want Outcome
		body string
	}{
		{"fetched", nil, OutcomeFetched, "two"},
		{"stale", errors.New("origin down"), OutcomeStale, "one"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := staleCache(10*time.Second, time.Second)
			c.PutAt(sobj(url, "one"), 0)
			now := 30 * time.Second
			var mu sync.Mutex
			var order []string
			var byContinuation Result
			note := func(who string) {
				mu.Lock()
				order = append(order, who)
				mu.Unlock()
			}
			f := lead(t, c, url, now, func(Result) { note("leader") })
			if res, jf := c.Begin(url, now, func(r Result) { byContinuation = r; note("continuation") }); jf != nil || res.Outcome != OutcomePending {
				t.Fatalf("second Begin = %+v, flight %v; want to join", res, jf)
			}
			blocked := make(chan Result)
			go func() {
				obj, out, err := c.GetOrFetchStale(url, now, func() (Object, error) {
					t.Error("blocking joiner fetched")
					return Object{}, nil
				})
				blocked <- Result{Obj: obj, Outcome: out, Err: err}
			}()
			for c.Stats().Shared < 2 {
				time.Sleep(time.Millisecond)
			}
			f.Settle(sobj(url, "two"), tc.err, now)
			for who, res := range map[string]Result{"continuation": byContinuation, "blocking": <-blocked} {
				if res.Outcome != tc.want || res.Err != nil || string(res.Obj.Body) != tc.body {
					t.Errorf("%s joiner resolved %+v, want %v with body %q", who, res, tc.want, tc.body)
				}
			}
			if len(order) != 2 || order[0] != "leader" || order[1] != "continuation" {
				t.Errorf("continuations ran in order %v, want leader then joiner", order)
			}
			if st := c.Stats(); st.Shared != 2 || (tc.want == OutcomeStale && st.StaleServes != 3) {
				t.Errorf("stats = %+v, want 2 shared and one stale serve per waiter", st)
			}
		})
	}
}

func TestGetOrFetchStaleFreshHit(t *testing.T) {
	c := staleCache(10*time.Second, time.Second)
	c.PutAt(sobj("http://a.com/x", "one"), 0)
	o, out, err := c.GetOrFetchStale("http://a.com/x", 5*time.Second, func() (Object, error) {
		t.Fatal("fetched despite fresh entry")
		return Object{}, nil
	})
	if err != nil || out != OutcomeHit || string(o.Body) != "one" {
		t.Fatalf("out=%v err=%v body=%q", out, err, o.Body)
	}
}

func TestGetOrFetchStaleRevalidates(t *testing.T) {
	c := staleCache(10*time.Second, time.Second)
	c.PutAt(sobj("http://a.com/x", "one"), 0)
	o, out, err := c.GetOrFetchStale("http://a.com/x", 30*time.Second, func() (Object, error) {
		return sobj("http://a.com/x", "two"), nil
	})
	if err != nil || out != OutcomeFetched || string(o.Body) != "two" {
		t.Fatalf("out=%v err=%v body=%q", out, err, o.Body)
	}
	// Entry is fresh again (new validator generation replaced the old body).
	if o2, lk := c.ProbeAt("http://a.com/x", 35*time.Second); lk != LookupFresh || string(o2.Body) != "two" {
		t.Fatalf("after revalidate: %v %q", lk, o2.Body)
	}
}

func TestGetOrFetchStaleServesStaleOnFailure(t *testing.T) {
	c := staleCache(10*time.Second, 5*time.Second)
	c.PutAt(sobj("http://a.com/x", "one"), 0)
	boom := errors.New("origin down")
	o, out, err := c.GetOrFetchStale("http://a.com/x", 30*time.Second, func() (Object, error) {
		return Object{}, boom
	})
	if err != nil || out != OutcomeStale || string(o.Body) != "one" {
		t.Fatalf("out=%v err=%v body=%q", out, err, o.Body)
	}
	// The failure is negatively cached: the next call inside the window must
	// serve stale without invoking fetch.
	o, out, err = c.GetOrFetchStale("http://a.com/x", 32*time.Second, func() (Object, error) {
		t.Fatal("fetched inside negative window")
		return Object{}, nil
	})
	if err != nil || out != OutcomeStale || string(o.Body) != "one" {
		t.Fatalf("neg window: out=%v err=%v body=%q", out, err, o.Body)
	}
	st := c.Stats()
	if st.StaleServes != 2 || st.NegHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGetOrFetchStaleFailsWithNothingResident(t *testing.T) {
	c := staleCache(0, 5*time.Second)
	boom := errors.New("origin down")
	_, out, err := c.GetOrFetchStale("http://a.com/x", 0, func() (Object, error) {
		return Object{}, boom
	})
	if out != OutcomeFailed || !errors.Is(err, boom) {
		t.Fatalf("out=%v err=%v", out, err)
	}
	// Inside the negative window with nothing resident: fail fast.
	_, out, err = c.GetOrFetchStale("http://a.com/x", time.Second, func() (Object, error) {
		t.Fatal("fetched inside negative window")
		return Object{}, nil
	})
	if out != OutcomeFailed || !errors.Is(err, ErrNegativeCached) {
		t.Fatalf("neg window: out=%v err=%v", out, err)
	}
	// Past the window the origin is retried.
	o, out, err := c.GetOrFetchStale("http://a.com/x", 10*time.Second, func() (Object, error) {
		return sobj("http://a.com/x", "back"), nil
	})
	if err != nil || out != OutcomeFetched || string(o.Body) != "back" {
		t.Fatalf("recovery: out=%v err=%v body=%q", out, err, o.Body)
	}
}

func TestGetOrFetchStaleSingleFlight(t *testing.T) {
	c := staleCache(10*time.Second, time.Second)
	const callers = 8
	gate := make(chan struct{})
	var fetches int
	var mu sync.Mutex
	var wg sync.WaitGroup
	outcomes := make([]Outcome, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, out, err := c.GetOrFetchStale("http://a.com/x", 0, func() (Object, error) {
				<-gate
				mu.Lock()
				fetches++
				mu.Unlock()
				return sobj("http://a.com/x", "one"), nil
			})
			if err != nil {
				t.Error(err)
			}
			outcomes[i] = out
		}(i)
	}
	// Give the callers a moment to pile onto the flight, then release it.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()
	if fetches != 1 {
		t.Fatalf("fetches = %d, want 1 (single flight)", fetches)
	}
	for i, out := range outcomes {
		if out != OutcomeFetched {
			t.Fatalf("caller %d outcome %v", i, out)
		}
	}
}

func TestGetOrFetchStaleJoinerGetsStaleOnFailure(t *testing.T) {
	c := staleCache(10*time.Second, time.Second)
	c.PutAt(sobj("http://a.com/x", "one"), 0)
	gate := make(chan struct{})
	entered := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	results := make([]Outcome, 2)
	go func() {
		defer wg.Done()
		_, out, _ := c.GetOrFetchStale("http://a.com/x", 30*time.Second, func() (Object, error) {
			close(entered)
			<-gate
			return Object{}, errors.New("origin down")
		})
		results[0] = out
	}()
	go func() {
		defer wg.Done()
		<-entered // the first caller owns the flight
		_, out, _ := c.GetOrFetchStale("http://a.com/x", 30*time.Second, func() (Object, error) {
			t.Error("joiner fetched")
			return Object{}, nil
		})
		results[1] = out
	}()
	go func() {
		// Let the joiner actually join before the flight fails.
		time.Sleep(20 * time.Millisecond)
		close(gate)
	}()
	wg.Wait()
	if results[0] != OutcomeStale || results[1] != OutcomeStale {
		t.Fatalf("outcomes = %v, want both stale", results)
	}
}

func TestOutcomeStrings(t *testing.T) {
	for out, want := range map[Outcome]string{
		OutcomeHit: "hit", OutcomeFetched: "fetched", OutcomeStale: "stale",
		OutcomeFailed: "failed", Outcome(42): "unknown",
	} {
		if out.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(out), out.String(), want)
		}
	}
}

// cacheOp is one step of a spelling-equivalence script: a store of obj, or a
// lookup of url (plain when fetch is nil, single-flight otherwise).
type cacheOp struct {
	put   *Object
	url   string
	fetch func() (Object, error)
}

func putOp(o Object) cacheOp   { return cacheOp{put: &o} }
func getOp(url string) cacheOp { return cacheOp{url: url} }
func fetchOp(url string, o Object, err error) cacheOp {
	return cacheOp{url: url, fetch: func() (Object, error) { return o, err }}
}

// opResult is what one cacheOp observed: the object, whether it was served
// from a resident entry, and the error text.
type opResult struct {
	obj Object
	hit bool
	err string
}

// TestClockFreeSpellingMatchesTimedAtZero drives Get/Put/GetOrFetch and
// ProbeAt/PutAt/GetOrFetchStale at now = 0 over the same scripts — the
// sequential cases of objcache_test.go — and requires identical objects and
// identical Stats: the two spellings are one implementation, and at time zero
// nothing ages, so neither touches the stale or negative-cache counters.
func TestClockFreeSpellingMatchesTimedAtZero(t *testing.T) {
	boom := errors.New("origin down")
	var eviction, fifty []cacheOp
	for i := 0; i < 2000; i++ {
		eviction = append(eviction, putOp(obj(fmt.Sprintf("http://d%d.test/o%d", i%7, i), "v", 1024, byte(i))))
	}
	eviction = append(eviction, putOp(obj("http://huge.test/x", "v", 64<<10, 'h')), getOp("http://huge.test/x"))
	lru := []cacheOp{
		putOp(obj("http://d.test/keep", "v", 1024, 'k')),
		putOp(obj("http://d.test/drop", "v", 1024, 'd')),
		getOp("http://d.test/keep"),
	}
	for i := 0; i < 7; i++ {
		lru = append(lru, putOp(obj(fmt.Sprintf("http://d.test/f%d", i), "v", 1024, byte(i))))
	}
	lru = append(lru, getOp("http://d.test/keep"), getOp("http://d.test/drop"))
	for i := 0; i < 50; i++ {
		fifty = append(fifty, putOp(sobj(fmt.Sprintf("http://a.com/%d", i), fmt.Sprintf("body-%d", i))))
	}
	for i := 0; i < 50; i++ {
		fifty = append(fifty, getOp(fmt.Sprintf("http://a.com/%d", i)))
	}

	scripts := []struct {
		name string
		cfg  Config
		ops  []cacheOp
	}{
		{"validator generations", Config{Capacity: 1 << 20, Segments: 4}, []cacheOp{
			putOp(obj("http://d0.test/a", "v1", 100, 'a')),
			getOp("http://D0.test/a#frag"),
			putOp(obj("http://d0.test/a", "v1", 100, 'b')),
			getOp("http://d0.test/a"),
			putOp(obj("http://d0.test/a", "v2", 50, 'c')),
			getOp("http://d0.test/a"),
			putOp(Object{URL: "http://d0.test/404", Status: 404, Validator: "e", Body: []byte("nope")}),
			getOp("http://d0.test/404"),
		}},
		{"eviction pressure", Config{Capacity: 64 << 10, Segments: 4}, eviction},
		{"lru order", Config{Capacity: 8 << 10, Segments: 1}, lru},
		{"fetch then hit", Config{Capacity: 1 << 20, Segments: 2}, []cacheOp{
			fetchOp("http://d.test/one", obj("http://d.test/one", "v1", 64, 'x'), nil),
			fetchOp("http://d.test/one", Object{}, boom),
			getOp("http://d.test/one"),
		}},
		{"failed fetch not cached", Config{Capacity: 1 << 20, Segments: 1}, []cacheOp{
			fetchOp("http://d.test/x", Object{}, boom),
			getOp("http://d.test/x"),
			fetchOp("http://d.test/x", obj("http://d.test/x", "v", 8, 'y'), nil),
		}},
		{"zero capacity", Config{Capacity: 0, Segments: 2}, []cacheOp{
			putOp(obj("http://d.test/a", "v", 10, 'a')),
			getOp("http://d.test/a"),
			fetchOp("http://d.test/a", obj("http://d.test/a", "v", 10, 'a'), nil),
		}},
		{"fifty put then get", Config{Capacity: 1 << 20, Segments: 4}, fifty},
	}

	clockFree := func(c *Cache, op cacheOp) (r opResult) {
		var err error
		switch {
		case op.put != nil:
			c.Put(*op.put)
		case op.fetch == nil:
			r.obj, r.hit = c.Get(op.url)
		default:
			r.obj, r.hit, err = c.GetOrFetch(op.url, op.fetch)
		}
		if err != nil {
			r.err = err.Error()
		}
		return r
	}
	timedAtZero := func(c *Cache, op cacheOp) (r opResult) {
		var err error
		switch {
		case op.put != nil:
			c.PutAt(*op.put, 0)
		case op.fetch == nil:
			var lk Lookup
			if r.obj, lk = c.ProbeAt(op.url, 0); lk == LookupStale {
				t.Errorf("ProbeAt(%s, 0) found a stale entry", op.url)
			}
			r.hit = lk == LookupFresh
		default:
			var out Outcome
			r.obj, out, err = c.GetOrFetchStale(op.url, 0, op.fetch)
			r.hit = out == OutcomeHit
		}
		if err != nil {
			r.err = err.Error()
		}
		return r
	}

	for _, sc := range scripts {
		t.Run(sc.name, func(t *testing.T) {
			a, b := New(sc.cfg), New(sc.cfg)
			for i, op := range sc.ops {
				ra, rb := clockFree(a, op), timedAtZero(b, op)
				if !reflect.DeepEqual(ra, rb) {
					t.Fatalf("op %d: clock-free %+v, timed-at-zero %+v", i, ra, rb)
				}
			}
			sa, sb := a.Stats(), b.Stats()
			if sa != sb {
				t.Fatalf("stats diverged:\n clock-free    %+v\n timed-at-zero %+v", sa, sb)
			}
			if sa.StaleServes != 0 || sa.NegHits != 0 {
				t.Fatalf("time-zero script touched the stale counters: %+v", sa)
			}
		})
	}
}

// TestGetOrFetchStalePanicSettlesFlight is the stale-arm twin of the
// GetOrFetch panic regression: a panicking revalidation fetch must settle its
// flight so the key stays fetchable.
func TestGetOrFetchStalePanicSettlesFlight(t *testing.T) {
	c := staleCache(10*time.Second, 0)
	const url = "http://a.com/panic"
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("fetch panic did not propagate to the caller")
			}
		}()
		c.GetOrFetchStale(url, 0, func() (Object, error) { panic("origin exploded") })
	}()

	done := make(chan struct{})
	var out Outcome
	var err error
	go func() {
		defer close(done)
		_, out, err = c.GetOrFetchStale(url, time.Second, func() (Object, error) {
			return sobj(url, "fresh"), nil
		})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("second GetOrFetchStale hung: the panicking fetch leaked its flight")
	}
	if err != nil || out != OutcomeFetched {
		t.Fatalf("second fetch after panic: outcome=%v err=%v", out, err)
	}
}

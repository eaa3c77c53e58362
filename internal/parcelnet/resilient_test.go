package parcelnet

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/parcel-go/parcel/internal/core"
	"github.com/parcel-go/parcel/internal/httpsim"
	"github.com/parcel-go/parcel/internal/leakcheck"
	"github.com/parcel-go/parcel/internal/objcache"
	"github.com/parcel-go/parcel/internal/replay"
	"github.com/parcel-go/parcel/internal/resilience"
	"github.com/parcel-go/parcel/internal/scenario"
	"github.com/parcel-go/parcel/internal/sched"
	"github.com/parcel-go/parcel/internal/webgen"
)

// TestResilientRetriesThroughFlap runs a session against an origin that is
// down for its first 750 ms (a flap window): the resilient fetch path retries
// with backoff until the window passes, the session completes with the full
// object set, and the retries are charged to the session's CompleteNote and
// SessionLoad.
func TestResilientRetriesThroughFlap(t *testing.T) {
	defer leakcheck.Check(t)()
	archive, mainURL := testArchive()
	origin, err := StartOrigin("127.0.0.1:0", replay.Rewriting{Store: archive})
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	if err := origin.SetFaults(httpsim.OriginFaults{
		Flaps: []httpsim.FlapWindow{{Start: 0, End: 750 * time.Millisecond}},
	}, 1); err != nil {
		t.Fatal(err)
	}
	proxy, err := StartProxy("127.0.0.1:0", ProxyConfig{
		OriginAddr:  origin.Addr(),
		Sched:       sched.ConfigIND,
		QuietPeriod: 300 * time.Millisecond,
		FixedRandom: true,
		Resilience: resilience.Policy{
			Timeout:          2 * time.Second,
			MaxRetries:       3,
			BackoffBase:      500 * time.Millisecond,
			BackoffMax:       time.Second,
			FailureThreshold: 8,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	client, err := Dial(proxy.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.RequestPage(mainURL, "", ""); err != nil {
		t.Fatal(err)
	}
	note, err := client.WaitComplete(15 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(client.Objects()); got != archive.Len() {
		t.Errorf("received %d objects, want %d", got, archive.Len())
	}
	if note.OriginRetries == 0 {
		t.Error("note.OriginRetries = 0, want at least one retry through the flap window")
	}
	if fs := origin.FaultStats(); fs.FlapErrors == 0 {
		t.Errorf("origin injected no flap errors: %+v", fs)
	}
	if rs := proxy.ResilienceStats(); rs.Retries == 0 {
		t.Errorf("proxy resilience stats recorded no retries: %+v", rs)
	}
	if l := client.SessionLoad(0); l.Retries == 0 {
		t.Errorf("SessionLoad.Retries = 0, want note retries carried through (note=%+v)", note)
	}
}

// TestResilientServesStaleWhenOriginDies loads a page once to warm the shared
// cache, kills the origin, waits out the freshness window, and loads again:
// every object is served from the stale cache instead of failing, the session
// completes with the full set, and the degradation is tagged in StaleServes.
func TestResilientServesStaleWhenOriginDies(t *testing.T) {
	defer leakcheck.Check(t)()
	archive, mainURL := testArchive()
	origin, err := StartOrigin("127.0.0.1:0", replay.Rewriting{Store: archive})
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	proxy, err := StartProxy("127.0.0.1:0", ProxyConfig{
		OriginAddr:    origin.Addr(),
		Sched:         sched.ConfigIND,
		QuietPeriod:   300 * time.Millisecond,
		FixedRandom:   true,
		CacheBytes:    1 << 20,
		CacheFreshFor: 50 * time.Millisecond,
		Resilience: resilience.Policy{
			Timeout:    2 * time.Second,
			MaxRetries: 0,
			NegTTL:     time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	warm, err := Dial(proxy.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.RequestPage(mainURL, "", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := warm.WaitComplete(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	warm.Close()

	origin.Close()
	time.Sleep(100 * time.Millisecond) // entries age past CacheFreshFor

	client, err := Dial(proxy.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.RequestPage(mainURL, "", ""); err != nil {
		t.Fatal(err)
	}
	note, err := client.WaitComplete(15 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(client.Objects()); got != archive.Len() {
		t.Errorf("stale session received %d objects, want %d", got, archive.Len())
	}
	if note.StaleServes == 0 {
		t.Errorf("note.StaleServes = 0, want stale serves with the origin dead (note=%+v)", note)
	}
	if l := client.SessionLoad(1); l.StaleServes == 0 {
		t.Error("SessionLoad.StaleServes = 0, want note stale serves carried through")
	}
	if st := proxy.CacheStats(); st.StaleServes == 0 {
		t.Errorf("cache recorded no stale serves: %+v", st)
	}
}

// TestResilientBreakerOpensOnDeadOrigin drives sessions at an origin that was
// never reachable. The first session's attempt and first retry are the
// FailureThreshold consecutive failures that open the per-origin breaker, and
// its next retry fails fast instead of dialing; the failure is then
// negatively cached, so the later sessions are refused by the cache and never
// reach the breaker. Every session still completes (degraded 502 objects, not
// hung pages).
func TestResilientBreakerOpensOnDeadOrigin(t *testing.T) {
	defer leakcheck.Check(t)()
	archive, mainURL := testArchive()
	origin, err := StartOrigin("127.0.0.1:0", replay.Rewriting{Store: archive})
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := origin.Addr()
	origin.Close() // nothing listens here any more

	proxy, err := StartProxy("127.0.0.1:0", ProxyConfig{
		OriginAddr:  deadAddr,
		Sched:       sched.ConfigIND,
		QuietPeriod: 100 * time.Millisecond,
		FixedRandom: true,
		Resilience: resilience.Policy{
			Timeout:          time.Second,
			FailureThreshold: 2,
			OpenFor:          10 * time.Second,
			NegTTL:           10 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	for i := 0; i < 3; i++ {
		client, err := Dial(proxy.Addr(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := client.RequestPage(mainURL, "", ""); err != nil {
			client.Close()
			t.Fatal(err)
		}
		if _, err := client.WaitComplete(15 * time.Second); err != nil {
			client.Close()
			t.Fatalf("session %d: %v", i, err)
		}
		client.Close()
	}
	rs := proxy.ResilienceStats()
	if rs.BreakerOpens == 0 {
		t.Errorf("breaker never opened against a dead origin: %+v", rs)
	}
	if rs.BreakerFastFails != 1 {
		t.Errorf("breaker fast-fails = %d, want the first session's one: %+v", rs.BreakerFastFails, rs)
	}
	if st := proxy.CacheStats(); st.NegHits != 2 {
		t.Errorf("negative-cache hits = %d, want one per later session: %+v", st.NegHits, st)
	}
}

// TestResilientPolicyValidation rejects a bad policy at StartProxy time.
func TestResilientPolicyValidation(t *testing.T) {
	defer leakcheck.Check(t)()
	_, err := StartProxy("127.0.0.1:0", ProxyConfig{
		OriginAddr: "127.0.0.1:1",
		Sched:      sched.ConfigIND,
		Resilience: resilience.Policy{Timeout: -time.Second},
	})
	if err == nil {
		t.Fatal("StartProxy accepted a negative resilience timeout")
	}
}

// TestResilientDriversAgree runs one script through both drivers of the
// resilience.Attempt stepper — this package's blocking loop over a fake fetch
// func, and core's event-loop driver against httpsim fault injection — and
// requires the same failed attempts, retries, breaker opens, refusals and
// final outcome from each. A script fails an origin's first attempts (or all
// of them); only the clock differs: the blocking arm runs with zero backoff,
// the simulated one with backoffs long enough to outlast a flap window.
func TestResilientDriversAgree(t *testing.T) {
	type tally struct {
		failedAttempts, retries int
		opens, refusals         int64
		ok                      bool
	}
	const forever = 1 << 30
	scripts := []struct {
		name string
		pol  resilience.Policy
		// fail is how many of the origin's first attempts fail; timeouts makes
		// them stalls past the deadline instead of 503s.
		fail     int
		timeouts bool
		want     tally
	}{
		{name: "503 then ok", pol: resilience.Policy{MaxRetries: 3, FailureThreshold: 100}, fail: 1,
			want: tally{failedAttempts: 1, retries: 1, ok: true}},
		{name: "budget exhausted", pol: resilience.Policy{MaxRetries: 2, FailureThreshold: 100}, fail: forever,
			want: tally{failedAttempts: 3, retries: 2}},
		{name: "timeouts", pol: resilience.Policy{MaxRetries: 1, FailureThreshold: 100}, fail: forever, timeouts: true,
			want: tally{failedAttempts: 2, retries: 1}},
		{name: "breaker opens mid-retry", pol: resilience.Policy{MaxRetries: 4, FailureThreshold: 2, OpenFor: time.Hour}, fail: forever,
			want: tally{failedAttempts: 2, retries: 1, opens: 1, refusals: 1}},
	}
	page := webgen.Generate(webgen.Spec{Seed: 1, NumPages: 1})[0]
	for _, sc := range scripts {
		t.Run(sc.name, func(t *testing.T) {
			blocking := func() (got tally) {
				pol := sc.pol
				pol.Timeout, pol.BackoffBase, pol.BackoffMax = 20*time.Millisecond, 1, 1
				calls := 0
				r := newResilientFetcher(func(ctx context.Context, url string) ([]byte, string, int, string, error) {
					calls++
					switch {
					case calls > sc.fail:
						return []byte("body"), "text/html", 200, "v", nil
					case sc.timeouts:
						<-ctx.Done()
						got.failedAttempts++
						return nil, "", 0, "", ctx.Err()
					}
					got.failedAttempts++
					return nil, "text/plain", 503, "", nil
				}, pol)
				_, _, _, _, err := r.do(page.MainURL, func() { got.retries++ })
				if refused := errors.Is(err, resilience.ErrOpen); refused != (sc.want.refusals > 0) {
					t.Errorf("blocking arm: err = %v, refused by the breaker = %v", err, refused)
				}
				if int64(got.retries) != r.retries.Load() {
					t.Errorf("blocking arm: %d retries charged to the session, %d counted by the proxy", got.retries, r.retries.Load())
				}
				got.opens, got.refusals, got.ok = r.group.Opens(), r.group.FastFails(), err == nil
				return got
			}()

			// The simulated origin fails by the clock, not by count: a flap
			// window the first attempt falls into and every backoff outlasts,
			// or faults that never stop. A failed main document ends the crawl,
			// so the tally is that one fetch's; LoadClient sends no §4.5
			// fallback requests that would add their own.
			simulated := func() (got tally) {
				pol := sc.pol
				pol.Timeout, pol.BackoffBase, pol.BackoffMax = time.Second, 20*time.Second, 20*time.Second
				params := scenario.DefaultParams()
				switch {
				case sc.fail < forever:
					params.OriginFaults = httpsim.OriginFaults{Flaps: []httpsim.FlapWindow{{Start: 0, End: 5 * time.Second}}}
				case sc.timeouts:
					params.OriginFaults = httpsim.OriginFaults{StallRate: 1, StallFor: 3 * time.Second}
				default:
					params.OriginFaults = httpsim.OriginFaults{ErrorRate: 1}
				}
				topo := scenario.Build(page, params)
				pc := core.DefaultProxyConfig()
				pc.Resilience = pol
				proxy := core.StartProxy(topo, pc)
				core.NewLoadClient(0, topo.Sim, topo.Client, topo.Proxy, page.MainURL, page.ObjectCount).StartAt(0)
				topo.Sim.Run()
				for _, srv := range topo.Origins {
					got.failedAttempts += srv.FaultStats().Total()
				}
				sess := proxy.Sessions[0]
				g := proxy.Resilience()
				if int64(sess.BreakerFastFails) != g.FastFails() {
					t.Errorf("simulated arm: session booked %d refusals, breakers %d", sess.BreakerFastFails, g.FastFails())
				}
				got.retries, got.opens, got.refusals, got.ok = sess.Counts().OriginRetries, g.Opens(), g.FastFails(), sess.Counts().ObjectsPushed > 0
				return got
			}()

			if blocking != sc.want || simulated != sc.want {
				t.Errorf("blocking arm %+v, simulated arm %+v, want both %+v", blocking, simulated, sc.want)
			}
		})
	}
}

// TestFetchURLWarmHitAllocatesNothing: a session's fetch of an object the
// shared cache holds fresh — nearly every fetch of a warm proxy — allocates
// nothing on the way through the cache.
func TestFetchURLWarmHitAllocatesNothing(t *testing.T) {
	cache := objcache.New(objcache.Config{Capacity: 1 << 20, Segments: 1})
	const url = "http://a.test/app.js"
	cache.PutAt(objcache.Object{URL: url, ContentType: "application/javascript", Status: 200, Body: []byte("var a = 1;")}, 0)
	origin := func(context.Context, string) ([]byte, string, int, string, error) {
		return nil, "", 0, "", errors.New("origin contacted on a warm hit")
	}
	p := &Proxy{cache: cache, res: newResilientFetcher(origin, resilience.Policy{})}
	s := &session{proxy: p, page: sched.NewSession(func([]sched.Item, sched.FlushReason) {}, 0, 0, nil)}
	if n := testing.AllocsPerRun(1000, func() {
		if _, _, _, err := s.fetchURL(url); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("warm hit allocates %.1f/op, want 0", n)
	}
	if hits := s.page.CacheHits; hits == 0 {
		t.Fatal("the session counted no cache hits")
	}
}

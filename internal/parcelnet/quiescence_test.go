package parcelnet

import (
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/parcel-go/parcel/internal/leakcheck"
	"github.com/parcel-go/parcel/internal/replay"
	"github.com/parcel-go/parcel/internal/sched"
)

// TestCrawlQuiescence drives one session's page through its crawl on the
// serial schedule and manual clock — page timers and the quiet window alike —
// and checks when the page completes and what it pushed before and after.
// The crawl's settled signal is raised by the driver, on its own goroutine, at
// the point the crawler raises it (nothing in flight after onload), so
// nothing moves under the re-check unless a row says so.
func TestCrawlQuiescence(t *testing.T) {
	const (
		quiet = 50 * time.Millisecond
		img   = "http://equiv.test/img.png"
		ad    = "http://equiv.test/ad.png"
	)
	for _, row := range []struct {
		name  string
		timer string // the page's timer delay in ms; "" for none
		// between fires this many manual timers after the settled signal
		// and before the session re-checks; stale raises the signal in every
		// state the driver reaches, settled or not, as a signal overtaken by
		// new work would arrive.
		between     int
		stale       bool
		early, late []string // pushed before the completion note, after it
		at          time.Duration
	}{
		{name: "no timers",
			early: []string{equivMain, img}},
		{name: "timer due beyond the window completes at idle", timer: "200",
			early: []string{equivMain, img}, late: []string{ad}},
		{name: "timer due inside the window is waited for", timer: "20",
			early: []string{equivMain, img, ad}, at: 20 * time.Millisecond},
		// The window (due at 50 ms) elapses and the timer (60 ms) fires
		// before the re-check: the window completes the page, the re-check
		// is a no-op, and the timer's fetch is a straggler.
		{name: "timer fires between the signal and the re-check", timer: "60", between: 2,
			early: []string{equivMain, img}, late: []string{ad}, at: 50 * time.Millisecond},
		// Signals before onload and with the timer's fetch in flight are
		// refused: the page completes only once the ad is in.
		{name: "stale signals are refused", timer: "20", stale: true,
			early: []string{equivMain, img, ad}, at: 20 * time.Millisecond},
	} {
		t.Run(row.name, func(t *testing.T) {
			html := `<html><body><img src="/img.png">`
			if row.timer != "" {
				html += `<script>setTimeout(` + row.timer + `, function() { fetch("/ad.png"); });</script>`
			}
			st := site{}
			st.put(equivMain, "text/html", html+`</body></html>`)
			st.put(img, "image/png", "I")
			st.put(ad, "image/png", "A")
			sc := &serialCrawl{st: st, parked: map[string]chan struct{}{}}

			var early, late []string
			s := bareSession(ProxyConfig{Sched: sched.ConfigIND, QuietPeriod: quiet}, func(items []sched.Item, reason sched.FlushReason) {
				for _, it := range items {
					if reason == sched.FlushComplete {
						late = append(late, it.URL)
					} else {
						early = append(early, it.URL)
					}
				}
			})
			s.page.StartPage(sched.ConfigIND, nil, nil)
			var signals atomic.Int32
			c := newCrawler(nil, true, s.collected, s.crawlLoaded, func() { signals.Add(1) })
			sc.use(c)
			s.crawl = c

			// After every action: take a staged completion note as the
			// writer would, stamped with the clock.
			notes, at := 0, time.Duration(-1)
			takeNote := func() {
				s.mu.Lock()
				defer s.mu.Unlock()
				if s.completeNote != nil {
					s.completeNote = nil
					if notes++; notes == 1 {
						at = sc.now().Sub(crawlEpoch)
					}
				}
			}
			c.start(equivMain)
			signal := true // once per state the driver's steps reach
			for {
				more := sc.settle(t, c)
				takeNote()
				c.mu.Lock()
				settled := c.inflight == 0 && c.onloadFired
				c.mu.Unlock()
				if (settled || row.stale) && signal {
					signal = false
					for i := 0; i < row.between; i++ {
						sc.step()
						takeNote()
					}
					row.between = 0
					s.crawlSettled()
					takeNote()
					continue
				}
				if !more {
					break
				}
				sc.step()
				signal = true
			}

			if notes != 1 || at != row.at {
				t.Errorf("%d completion notes, first at %v; want 1 at %v", notes, at, row.at)
			}
			if !reflect.DeepEqual(early, row.early) || !reflect.DeepEqual(late, row.late) {
				t.Errorf("pushed %v before completion and %v after; want %v and %v", early, late, row.early, row.late)
			}
			if signals.Load() == 0 {
				t.Error("the crawler never signalled it had settled")
			}
			if s.quiet != nil {
				t.Error("quiet window still armed after completion")
			}
		})
	}
}

// bareSession is a session as serve builds one, without a connection or
// writer: whatever the page session admits is reported to flush, with its
// reason, and then opened as streams.
func bareSession(cfg ProxyConfig, flush func([]sched.Item, sched.FlushReason)) *session {
	s := &session{
		proxy: &Proxy{cfg: cfg},
		mux:   newMuxSender(cfg.MuxChunkSize, cfg.MuxStreamWindow, cfg.MuxConnWindow),
		cache: make(map[string]sched.Item),
	}
	s.sendCond = sync.NewCond(&s.mu)
	s.page = sched.NewSession(func(items []sched.Item, reason sched.FlushReason) {
		flush(items, reason)
		s.pushLocked(items, reason)
	}, 0, cfg.SessionPushBudget, nil)
	return s
}

// TestCompletesOnQuiescence: the quiet period is an upper bound. A page with
// no timer due inside a 10 s window completes as soon as its crawl is done;
// a session holding parked pushes waits the window out, which drains them
// rather than shedding them.
func TestCompletesOnQuiescence(t *testing.T) {
	t.Run("no early timer", func(t *testing.T) {
		defer leakcheck.Check(t)()
		archive, mainURL := testArchiveAd(30 * time.Second)
		origin, err := StartOrigin("127.0.0.1:0", replay.Rewriting{Store: archive})
		if err != nil {
			t.Fatal(err)
		}
		defer origin.Close()
		proxy, err := StartProxy("127.0.0.1:0", ProxyConfig{
			OriginAddr: origin.Addr(), Sched: sched.ConfigONLD, QuietPeriod: 10 * time.Second, FixedRandom: true,
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
		start := time.Now()
		if err := client.RequestPage(mainURL, "", ""); err != nil {
			t.Fatal(err)
		}
		note, err := client.WaitComplete(15 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d >= time.Second {
			t.Errorf("page completed after %v with nothing due inside its 10 s window", d)
		}
		// Everything but the 30 s ad, which is fetched after the note.
		if note.ObjectsPushed != archive.Len()-1 || client.Has("http://ads.test/late.png") {
			t.Errorf("pushed %d of %d objects before completion (ad held: %v)", note.ObjectsPushed, archive.Len(), client.Has("http://ads.test/late.png"))
		}
	})

	t.Run("parked items wait for the window", func(t *testing.T) {
		defer leakcheck.Check(t)()
		const quiet = time.Second
		archive, mainURL := bigArchive(16, 32<<10)
		origin, err := StartOrigin("127.0.0.1:0", replay.Rewriting{Store: archive})
		if err != nil {
			t.Fatal(err)
		}
		defer origin.Close()
		g := newGate()
		proxy, err := StartProxy("127.0.0.1:0", ProxyConfig{
			OriginAddr:        origin.Addr(),
			Sched:             sched.ConfigIND,
			QuietPeriod:       quiet,
			SessionPushBudget: 64 << 10,
			WrapConn:          func(c net.Conn) net.Conn { return &gatedConn{Conn: c, g: g} },
		})
		if err != nil {
			t.Fatal(err)
		}
		defer proxy.Close()
		defer g.Open()
		client, err := Dial(proxy.Addr(), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		start := time.Now()
		if err := client.RequestPage(mainURL, "", ""); err != nil {
			t.Fatal(err)
		}
		// The crawl finishes with pushes parked behind the closed gate: it
		// has settled, but the session cannot prove the window quiet.
		waitFor(t, 5*time.Second, func() bool {
			for _, s := range proxy.activeSessions() {
				s.mu.Lock()
				parked, crawl := len(s.page.Parked()), s.crawl
				s.mu.Unlock()
				if crawl == nil || parked == 0 {
					return false
				}
				crawl.mu.Lock()
				defer crawl.mu.Unlock()
				return crawl.inflight == 0 && len(crawl.requested) == archive.Len()
			}
			return false
		})
		g.Open()
		note, err := client.WaitComplete(15 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < quiet {
			t.Errorf("completed after %v with pushes parked: before the %v window elapsed", d, quiet)
		}
		if note.Deferred == 0 || note.Shed != 0 || note.ObjectsPushed != archive.Len() {
			t.Errorf("want deferrals drained, nothing shed, everything pushed: %+v", note)
		}
		if got := client.Objects(); len(got) != archive.Len() {
			t.Errorf("client holds %d of %d objects: %v", len(got), archive.Len(), got)
		}
	})
}

package parcelnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/parcel-go/parcel/internal/httpsim"
	"github.com/parcel-go/parcel/internal/leakcheck"
	"github.com/parcel-go/parcel/internal/replay"
	"github.com/parcel-go/parcel/internal/sched"
)

// bigArchive builds a page heavy enough that admission control has real work
// to do: a padded HTML shell referencing n images of size bytes each.
func bigArchive(n, size int) (*replay.Archive, string) {
	const main = "http://big.test/index.html"
	a := replay.NewArchive()
	var sb strings.Builder
	sb.WriteString("<!DOCTYPE html><html><body>\n")
	sb.WriteString("<!-- " + strings.Repeat("pad", 700) + " -->\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "<img src=\"/img%d.png\">\n", i)
	}
	sb.WriteString("</body></html>")
	a.Record(httpsim.Object{URL: main, ContentType: "text/html", Body: []byte(sb.String())})
	for i := 0; i < n; i++ {
		a.Record(httpsim.Object{
			URL:         fmt.Sprintf("http://big.test/img%d.png", i),
			ContentType: "image/png",
			Body:        []byte(strings.Repeat("x", size)),
		})
	}
	return a, main
}

// gate blocks writers until opened. Wrapping a session's conn with it is the
// deterministic stand-in for a stalled cellular link: the session writer
// blocks exactly where a full TCP send buffer would block it, without
// depending on kernel buffer sizing.
type gate struct {
	mu   sync.Mutex
	cond *sync.Cond
	open bool
}

func newGate() *gate {
	g := &gate{}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *gate) Open() {
	g.mu.Lock()
	g.open = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

func (g *gate) wait() {
	g.mu.Lock()
	for !g.open {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// gatedConn holds every Write until its gate opens. Close opens the gate so
// a blocked session writer can observe the dead conn and exit.
type gatedConn struct {
	net.Conn
	g *gate
}

func (c *gatedConn) Write(b []byte) (int, error) {
	c.g.wait()
	return c.Conn.Write(b)
}

func (c *gatedConn) Close() error {
	c.g.Open()
	return c.Conn.Close()
}

// TestSlowReaderDefersThenDelivers is the defer path: while the client's link
// is stalled the session fills its push budget and the proxy parks further
// objects (Deferred, not OOM); when the link drains, every parked object is
// delivered — nothing shed, nothing lost — and the proxy-wide queue never
// exceeded its budget.
func TestSlowReaderDefersThenDelivers(t *testing.T) {
	defer leakcheck.Check(t)()
	archive, mainURL := bigArchive(16, 32<<10)
	origin, err := StartOrigin("127.0.0.1:0", replay.Rewriting{Store: archive})
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	g := newGate()
	const proxyBudget = 256 << 10
	proxy, err := StartProxy("127.0.0.1:0", ProxyConfig{
		OriginAddr:        origin.Addr(),
		Sched:             sched.ConfigIND,
		QuietPeriod:       time.Second,
		SessionPushBudget: 64 << 10,
		ProxyPushBudget:   proxyBudget,
		WrapConn:          func(c net.Conn) net.Conn { return &gatedConn{Conn: c, g: g} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	defer g.Open() // writers must be unblocked before proxy.Close waits on them

	// Sample the proxy-wide reservation while the session queues.
	var maxQueued atomic.Int64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if q := proxy.QueuedBytes(); q > maxQueued.Load() {
				maxQueued.Store(q)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	client, err := Dial(proxy.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.RequestPage(mainURL, "", ""); err != nil {
		t.Fatal(err)
	}
	// The stalled link fills the session budget: deferrals appear.
	waitFor(t, 5*time.Second, func() bool { return proxy.DeferredTotal() > 0 })
	if got := len(client.Objects()); got == archive.Len() {
		t.Fatal("client received everything through a closed gate")
	}
	g.Open()
	note, err := client.WaitComplete(15 * time.Second)
	close(stop)
	<-sampled
	if err != nil {
		t.Fatal(err)
	}
	if note.ObjectsDeferred == 0 {
		t.Errorf("completion note reports no deferrals: %+v", note)
	}
	if note.ObjectsShed != 0 {
		t.Errorf("deferred pushes were shed: %+v", note)
	}
	if note.ObjectsPushed != archive.Len() {
		t.Errorf("pushed %d, want %d", note.ObjectsPushed, archive.Len())
	}
	waitFor(t, 5*time.Second, func() bool { return len(client.Objects()) == archive.Len() })
	if mq := maxQueued.Load(); mq > proxyBudget {
		t.Errorf("queued bytes peaked at %d, above the %d budget", mq, proxyBudget)
	}
	waitFor(t, 5*time.Second, func() bool { return proxy.QueuedBytes() == 0 })
}

// TestProxyBudgetShedsToDirectOrigin is the shed path: a proxy-wide budget
// smaller than any object can never admit a push, so every object is shed —
// and a client with a direct-origin path still completes the page from the
// origin, guided by the shed notes.
func TestProxyBudgetShedsToDirectOrigin(t *testing.T) {
	defer leakcheck.Check(t)()
	archive, mainURL := bigArchive(6, 8<<10)
	origin, err := StartOrigin("127.0.0.1:0", replay.Rewriting{Store: archive})
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	proxy, err := StartProxy("127.0.0.1:0", ProxyConfig{
		OriginAddr:      origin.Addr(),
		Sched:           sched.ConfigIND,
		QuietPeriod:     300 * time.Millisecond,
		ProxyPushBudget: 1 << 10, // below any object's body: everything sheds
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	client, err := DialConfig(proxy.Addr(), ClientConfig{DirectOrigin: origin.Addr()})
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
	if note.ObjectsPushed != 0 || note.ObjectsShed != archive.Len() {
		t.Fatalf("want everything shed: %+v", note)
	}
	if proxy.ShedTotal() != int64(archive.Len()) {
		t.Errorf("proxy shed counter = %d, want %d", proxy.ShedTotal(), archive.Len())
	}
	// The page still completes: every object is reachable, fetched direct.
	for _, u := range archive.URLs() {
		if _, err := client.Object(u, 10*time.Second); err != nil {
			t.Fatalf("shed object %s unreachable: %v", u, err)
		}
	}
	if client.ShedReceived != archive.Len() {
		t.Errorf("client saw %d shed notices, want %d", client.ShedReceived, archive.Len())
	}
	if client.DirectFetches == 0 {
		t.Error("no direct fetches despite universal shedding")
	}
	if proxy.QueuedBytes() != 0 {
		t.Errorf("queued bytes = %d after completion, want 0", proxy.QueuedBytes())
	}
}

// TestSlowTenantDoesNotStallFastTenants pins the isolation property: one
// tenant behind a stalled link (its pushes deferring, eventually shedding at
// completion) must not delay a normally-connected tenant on the same proxy.
func TestSlowTenantDoesNotStallFastTenants(t *testing.T) {
	defer leakcheck.Check(t)()
	archive, mainURL := bigArchive(16, 32<<10)
	origin, err := StartOrigin("127.0.0.1:0", replay.Rewriting{Store: archive})
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	// Gate only the first accepted conn — the slow tenant dials first.
	g := newGate()
	var accepted atomic.Int64
	proxy, err := StartProxy("127.0.0.1:0", ProxyConfig{
		OriginAddr:        origin.Addr(),
		Sched:             sched.ConfigIND,
		QuietPeriod:       500 * time.Millisecond,
		Shards:            4,
		CacheBytes:        4 << 20,
		SessionPushBudget: 64 << 10,
		WrapConn: func(c net.Conn) net.Conn {
			if accepted.Add(1) == 1 {
				return &gatedConn{Conn: c, g: g}
			}
			return c
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	defer g.Open()

	slow, err := DialConfig(proxy.Addr(), ClientConfig{DirectOrigin: origin.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if err := slow.RequestPage(mainURL, "", ""); err != nil {
		t.Fatal(err)
	}
	// The slow tenant's writer is jammed before the fast tenant arrives.
	waitFor(t, 5*time.Second, func() bool { return proxy.DeferredTotal() > 0 })

	fast, err := Dial(proxy.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	start := time.Now()
	if err := fast.RequestPage(mainURL, "", ""); err != nil {
		t.Fatal(err)
	}
	note, err := fast.WaitComplete(10 * time.Second)
	if err != nil {
		t.Fatalf("fast tenant stalled behind the slow one: %v", err)
	}
	// Transient deferrals of the fast tenant's own making (its reader can lag
	// briefly) are fine — the isolation property is that nothing of its page
	// is shed and it completes promptly.
	if note.ObjectsShed != 0 {
		t.Errorf("fast tenant had pushes shed: %+v", note)
	}
	if len(fast.Objects()) != archive.Len() {
		t.Errorf("fast tenant got %d objects, want %d", len(fast.Objects()), archive.Len())
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("fast tenant took %v with a slow tenant present", d)
	}

	// Unjam the slow tenant: it completes too, via late delivery plus
	// direct-origin fetches of whatever its completion shed.
	g.Open()
	snote, err := slow.WaitComplete(15 * time.Second)
	if err != nil {
		t.Fatalf("slow tenant never completed: %v", err)
	}
	if snote.ObjectsPushed+snote.ObjectsShed < archive.Len() {
		t.Errorf("slow tenant lost objects: %+v", snote)
	}
	for _, u := range archive.URLs() {
		if _, err := slow.Object(u, 10*time.Second); err != nil {
			t.Fatalf("slow tenant missing %s: %v", u, err)
		}
	}
}

// TestDuplicatePageRequestTearsDownSession is the table of client input the
// stream layer has to define for itself, each row a raw connection that never
// acknowledges a byte. A window update ahead of the page request is ignored —
// crediting it would widen the connection window before the settings frame
// announces it — and so is a frame type nobody knows: the page then loads
// against exactly the configured connection window. A second page request
// tears the session down (two bundlers feeding one stream scheduler would
// push every object twice). Whatever the row, once the connection is gone
// every reserved byte is back in the proxy-wide budget.
func TestDuplicatePageRequestTearsDownSession(t *testing.T) {
	const connWindow = 4 << 10
	windowUpdate := binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, 0), 1<<20)
	for _, row := range []struct {
		name      string
		before    func(fw *FrameWriter) error // written ahead of the page request
		duplicate bool
	}{
		{name: "window update before page request",
			before: func(fw *FrameWriter) error { return fw.Write(TWindowUpdate, windowUpdate) }},
		{name: "unknown frame type",
			before: func(fw *FrameWriter) error { return fw.Write(0x7f, []byte("?")) }},
		{name: "duplicate page request", duplicate: true},
	} {
		t.Run(row.name, func(t *testing.T) {
			defer leakcheck.Check(t)()
			archive, mainURL := bigArchive(8, 16<<10)
			origin, err := StartOrigin("127.0.0.1:0", replay.Rewriting{Store: archive})
			if err != nil {
				t.Fatal(err)
			}
			defer origin.Close()
			proxy, err := StartProxy("127.0.0.1:0", ProxyConfig{
				OriginAddr:    origin.Addr(),
				Sched:         sched.ConfigIND,
				QuietPeriod:   time.Second,
				MuxChunkSize:  1 << 10,
				MuxConnWindow: connWindow,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer proxy.Close()

			conn, err := net.Dial("tcp", proxy.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			fw := NewFrameWriter(conn)
			if row.before != nil {
				if err := row.before(fw); err != nil {
					t.Fatal(err)
				}
			}
			req := PageRequest{URL: mainURL}
			if err := fw.WriteJSON(TPageRequest, &req); err != nil {
				t.Fatal(err)
			}
			if row.duplicate {
				if err := fw.WriteJSON(TPageRequest, &req); err != nil {
					t.Fatal(err)
				}
			}

			// Read until the proxy hangs up or falls silent.
			var first byte
			var frames, dataBytes int
			var rerr error
			for {
				if err := conn.SetReadDeadline(time.Now().Add(250 * time.Millisecond)); err != nil {
					t.Fatal(err)
				}
				typ, payload, err := ReadFramePooled(conn)
				if err != nil {
					rerr = err
					break
				}
				if frames == 0 {
					first = typ
				}
				frames++
				if typ == TStreamData {
					dataBytes += len(payload) - 5
				}
				ReleaseFrameBuf(payload)
			}
			hungUp := !errors.Is(rerr, os.ErrDeadlineExceeded)
			if hungUp != row.duplicate {
				t.Errorf("proxy hung up = %v (%v), want %v", hungUp, rerr, row.duplicate)
			}
			if !row.duplicate {
				if first != TMuxSettings {
					t.Errorf("first frame type %d, want TMuxSettings", first)
				}
				if dataBytes != connWindow {
					t.Errorf("unacknowledged session was sent %d stream bytes, want the %d-byte connection window", dataBytes, connWindow)
				}
				if proxy.Sessions() != 1 {
					t.Errorf("sessions = %d, want the session still alive", proxy.Sessions())
				}
			}
			conn.Close()
			waitFor(t, 5*time.Second, func() bool { return proxy.Sessions() == 0 && proxy.QueuedBytes() == 0 })
		})
	}
}

package parcelnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/parcel-go/parcel/internal/replay"
	"github.com/parcel-go/parcel/internal/sched"
)

// countingWriter counts Write calls and keeps every byte written.
type countingWriter struct {
	mu     sync.Mutex
	writes int
	buf    bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.writes++
	return w.buf.Write(p)
}

// TestFrameWriterOneWritePerFrame: every frame leaves in one Write, header
// and payload together, so a control frame or window credit costs one
// syscall and a concurrent writer can never split it.
func TestFrameWriterOneWritePerFrame(t *testing.T) {
	var w countingWriter
	fw := NewFrameWriter(&w)
	steps := []struct {
		name  string
		write func() error
	}{
		{"Write", func() error { return fw.Write(TShed, []byte(`{"urls":["a"]}`)) }},
		{"WriteJSON", func() error { return fw.WriteJSON(TObjectRequest, ObjectRequest{URL: "http://a.test/x"}) }},
		{"WriteWindowUpdate", func() error { return fw.WriteWindowUpdate(3, 1<<15) }},
		{"empty payload", func() error { return fw.Write(TComplete, nil) }},
		{"WriteFrame", func() error { return WriteFrame(&w, TDrain, []byte(`{}`)) }},
	}
	for i, st := range steps {
		if err := st.write(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if w.writes != i+1 {
			t.Fatalf("%s: %d writes after %d frames, want one per frame", st.name, w.writes, i+1)
		}
	}
	// The frames parse back in order.
	want := []byte{TShed, TObjectRequest, TWindowUpdate, TComplete, TDrain}
	br := bufio.NewReader(&w.buf)
	for i, typ := range want {
		got, payload, err := ReadFramePooled(br)
		if err != nil || got != typ {
			t.Fatalf("frame %d: type %d err %v, want type %d", i, got, err, typ)
		}
		ReleaseFrameBuf(payload)
	}
	if n := br.Buffered() + w.buf.Len(); n != 0 {
		t.Fatalf("%d stray bytes after the last frame", n)
	}
}

// scriptBody is a deterministic n-byte body.
func scriptBody(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// TestBatchesMatchFrameSequence drives two senders through one mixed script
// (critical and bulk adds, stream and connection credits, control frames) and
// compares, pass by pass, the writer's batch against the same frames emitted
// one at a time: the batch's bytes must equal their concatenation, and its
// gathered view must equal its flattened one. Batching changes how the bytes
// reach the socket, never which bytes.
func TestBatchesMatchFrameSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const chunk, streamWin, connWin = 16 << 10, 64 << 10, 256 << 10
	batched := newMuxSender(chunk, streamWin, connWin)
	single := newMuxSender(chunk, streamWin, connWin)
	var b frameBatch
	var batchedWire, singleWire bytes.Buffer
	types := []string{"text/css", "image/png", "application/javascript", "image/jpeg", "text/html", "font/woff2"}
	passes, multi := 0, 0

	pass := func(ctl []byte) {
		b.reset()
		var one bytes.Buffer
		if ctl != nil {
			b.frame(TShed, ctl)
			if err := WriteFrame(&one, TShed, ctl); err != nil {
				t.Fatal(err)
			}
		}
		for !b.full() && batched.nextFrame(&b) {
		}
		for one.Len() < batchBytes {
			f, _, ok := nextTestFrame(single)
			if !ok {
				break
			}
			one.Write(f)
		}
		var gathered []byte
		for _, seg := range b.gather() {
			gathered = append(gathered, seg...)
		}
		flat := b.flatten()
		if !bytes.Equal(gathered, flat) {
			t.Fatalf("pass %d: gathered view (%d bytes) differs from flattened batch (%d bytes)", passes, len(gathered), len(flat))
		}
		if !bytes.Equal(flat, one.Bytes()) {
			t.Fatalf("pass %d: batch (%d bytes) differs from the one-frame-at-a-time sequence (%d bytes)", passes, len(flat), one.Len())
		}
		if b.size() != len(flat) {
			t.Fatalf("pass %d: size() = %d, batch holds %d bytes", passes, b.size(), len(flat))
		}
		if len(b.refs) > 1 {
			multi++
		}
		batchedWire.Write(flat)
		singleWire.Write(one.Bytes())
		passes++
	}

	for op := 0; op < 400; op++ {
		switch r := rng.Intn(10); {
		case r < 4:
			n := rng.Intn(3 * chunk)
			if rng.Intn(8) == 0 {
				n = 0
			}
			body := scriptBody(rng, n)
			url := "http://s" + string(rune('a'+rng.Intn(4))) + ".test/o" + string(rune('a'+op%26)) + string(rune('a'+op/26))
			ct := types[rng.Intn(len(types))]
			batched.add(url, ct, 200, body, 0, int64(n))
			single.add(url, ct, 200, body, 0, int64(n))
		case r < 6:
			id := uint32(rng.Intn(int(batched.nextID)))
			inc := uint32(rng.Intn(2 * chunk))
			batched.credit(id, inc)
			single.credit(id, inc)
		case r < 7:
			pass([]byte(`{"urls":["http://sa.test/shed"]}`))
		default:
			pass(nil)
		}
	}
	// Open every window and drain what is left.
	for batched.live > 0 {
		for id := uint32(0); id < batched.nextID; id++ {
			batched.credit(id, connWin)
			single.credit(id, connWin)
		}
		pass(nil)
	}
	if single.live != 0 {
		t.Fatalf("one-at-a-time sender still has %d live streams", single.live)
	}
	if !bytes.Equal(batchedWire.Bytes(), singleWire.Bytes()) {
		t.Fatal("concatenated batches differ from the one-frame-at-a-time stream")
	}
	if multi < passes/4 {
		t.Fatalf("only %d of %d passes batched several chunks: the script does not exercise batching", multi, passes)
	}
}

// loopback returns both ends of a loopback TCP connection.
func loopback(t *testing.T) (client, server *net.TCPConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s := <-accepted
	if s == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { c.Close(); s.Close() })
	return c.(*net.TCPConn), s.(*net.TCPConn)
}

// tallyConn hides a conn's *net.TCPConn, as a ProxyConfig.WrapConn wrapper
// does, and counts and keeps what is written through it, so the frames behind
// those writes can be counted afterwards.
type tallyConn struct {
	net.Conn
	w *countingWriter
}

func (c *tallyConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if _, werr := c.w.Write(p[:n]); werr != nil {
		return n, werr
	}
	return n, err
}

// TestBatchWritePathsAgree writes one batch both ways writeBatch can: gathered
// (writev) on a bare *net.TCPConn and flattened into one Write on a wrapper
// that hides it, as a ProxyConfig.WrapConn wrapper does. The peer of each must
// read the same bytes.
func TestBatchWritePathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := newMuxSender(8<<10, 1<<20, 1<<20)
	for i := 0; i < 6; i++ {
		n := 3000 + rng.Intn(20000)
		m.add("http://a.test/o"+string(rune('a'+i)), "image/png", 200, scriptBody(rng, n), 0, int64(n))
	}
	var b frameBatch
	b.frame(TMuxSettings, m.settingsPayload())
	for !b.full() && m.nextFrame(&b) {
	}
	if len(b.refs) < 4 {
		t.Fatalf("batch holds %d refs, want several chunks sent in place", len(b.refs))
	}
	want := append([]byte(nil), b.flatten()...)

	read := func(c net.Conn) []byte {
		got := make([]byte, len(want))
		if err := c.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(c, got); err != nil {
			t.Fatal(err)
		}
		return got
	}
	gc, gs := loopback(t)
	if err := writeBatch(gc, &b); err != nil {
		t.Fatal(err)
	}
	if got := read(gs); !bytes.Equal(got, want) {
		t.Fatal("gathered write delivered different bytes")
	}
	fc, fs := loopback(t)
	var w countingWriter
	if err := writeBatch(&tallyConn{Conn: fc, w: &w}, &b); err != nil {
		t.Fatal(err)
	}
	if got := read(fs); !bytes.Equal(got, want) {
		t.Fatal("flattened write delivered different bytes")
	}
	if w.writes != 1 {
		t.Fatalf("flattened batch took %d writes, want 1", w.writes)
	}
}

// loadBig loads a 48-object page through a fresh proxy (wrap may be nil) and
// returns the client's object store.
func loadBig(t *testing.T, archive *replay.Archive, mainURL string, wrap func(net.Conn) net.Conn) map[string][]byte {
	t.Helper()
	origin, err := StartOrigin("127.0.0.1:0", replay.Rewriting{Store: archive})
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	proxy, err := StartProxy("127.0.0.1:0", ProxyConfig{
		OriginAddr:  origin.Addr(),
		Sched:       sched.ConfigONLD,
		QuietPeriod: 300 * time.Millisecond,
		WrapConn:    wrap,
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
	if err := client.RequestPage(mainURL, "parcel-test/1.0", "720x1280"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.WaitComplete(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	store := map[string][]byte{}
	for _, u := range archive.URLs() {
		p, err := client.Object(u, time.Second)
		if err != nil {
			t.Fatalf("missing %s: %v", u, err)
		}
		want, _ := archive.Get(u)
		if !bytes.Equal(p.Body, want.Body) {
			t.Fatalf("object %s corrupted in transit", u)
		}
		store[u] = p.Body
	}
	return store
}

// TestProxyBatchesSocketWrites loads one page through a counting WrapConn and
// checks the writer batches: it makes at most a quarter of the writes of one
// write per stream frame and two per control frame. The same page loaded
// over a bare *net.TCPConn (gathered writes) lands the same objects.
func TestProxyBatchesSocketWrites(t *testing.T) {
	archive, mainURL := bigArchive(48, 9000)
	var w countingWriter
	flat := loadBig(t, archive, mainURL, func(c net.Conn) net.Conn { return &tallyConn{Conn: c, w: &w} })

	w.mu.Lock()
	writes, wire := w.writes, w.buf.Bytes()
	w.mu.Unlock()
	perFrame := 0
	for len(wire) >= 5 {
		n := int(binary.BigEndian.Uint32(wire[1:5]))
		switch wire[0] {
		case TStreamOpen, TStreamData:
			perFrame++
		default:
			perFrame += 2
		}
		wire = wire[5+n:]
	}
	if len(wire) != 0 {
		t.Fatalf("%d bytes of a torn frame at the end of the proxy's stream", len(wire))
	}
	if writes*4 > perFrame {
		t.Fatalf("proxy made %d writes; one write per frame would make %d, want at most a quarter", writes, perFrame)
	}
	t.Logf("proxy writes: %d batched, %d at one write per frame", writes, perFrame)

	gathered := loadBig(t, archive, mainURL, nil)
	if len(gathered) != len(flat) {
		t.Fatalf("gathered load landed %d objects, flattened %d", len(gathered), len(flat))
	}
	for u, body := range flat {
		if !bytes.Equal(gathered[u], body) {
			t.Fatalf("object %s differs between the gathered and flattened loads", u)
		}
	}
}

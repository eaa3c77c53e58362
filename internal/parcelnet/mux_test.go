package parcelnet

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"github.com/parcel-go/parcel/internal/httpsim"
	"github.com/parcel-go/parcel/internal/leakcheck"
	"github.com/parcel-go/parcel/internal/netem"
	"github.com/parcel-go/parcel/internal/replay"
	"github.com/parcel-go/parcel/internal/sched"
)

// nextTestFrame drives m.nextFrame into a batch of its own: the frame's wire
// bytes, the body bytes it drains, and whether any stream was eligible.
func nextTestFrame(m *muxSender) ([]byte, int, bool) {
	var b frameBatch
	ok := m.nextFrame(&b)
	return b.flatten(), int(b.body), ok
}

// muxFrameInfo parses one frame from nextTestFrame.
type muxFrameInfo struct {
	typ   byte
	id    uint32
	flags byte
}

func parseMuxFrame(t *testing.T, frame []byte) muxFrameInfo {
	t.Helper()
	if len(frame) < 10 {
		t.Fatalf("frame too short: %d bytes", len(frame))
	}
	n := binary.BigEndian.Uint32(frame[1:5])
	if int(n) != len(frame)-5 {
		t.Fatalf("frame length header %d, actual payload %d", n, len(frame)-5)
	}
	return muxFrameInfo{typ: frame[0], id: binary.BigEndian.Uint32(frame[5:9]), flags: frame[9]}
}

// TestMuxPrioritySchedulerCriticalFirst pins the scheduler order at the unit
// level: a bulk stream admitted BEFORE a critical one still drains after it —
// every critical frame (open through END) precedes the first bulk frame.
// pendingBytes is the body bytes still queued across all live streams.
func (m *muxSender) pendingBytes() int64 {
	var n int64
	for _, q := range m.classes {
		for _, s := range q {
			n += int64(s.remaining())
		}
	}
	return n
}

func TestMuxPrioritySchedulerCriticalFirst(t *testing.T) {
	m := newMuxSender(32, 1<<20, 1<<20)
	bulk := m.add("http://a.test/hero.png", "image/png", 200, make([]byte, 64), 0, 64)
	crit := m.add("http://a.test/main.css", "text/css", 200, make([]byte, 64), 0, 64)
	if bulk.class != muxClassBulk || crit.class != muxClassCritical {
		t.Fatalf("classes: bulk=%d crit=%d", bulk.class, crit.class)
	}
	var order []muxFrameInfo
	for {
		frame, _, ok := nextTestFrame(m)
		if !ok {
			break
		}
		order = append(order, parseMuxFrame(t, frame))
	}
	// crit: open + two 32-byte chunks; bulk the same, strictly afterwards.
	if len(order) != 6 {
		t.Fatalf("got %d frames, want 6: %+v", len(order), order)
	}
	for i, f := range order[:3] {
		if f.id != crit.id {
			t.Fatalf("frame %d belongs to stream %d, want critical %d (%+v)", i, f.id, crit.id, order)
		}
	}
	if order[2].flags&muxFlagEnd == 0 {
		t.Fatal("critical stream not finished before bulk started")
	}
	for i, f := range order[3:] {
		if f.id != bulk.id {
			t.Fatalf("frame %d belongs to stream %d, want bulk %d", i+3, f.id, bulk.id)
		}
	}
	if m.live != 0 || m.pendingBytes() != 0 {
		t.Fatalf("scheduler not drained: live=%d pending=%d", m.live, m.pendingBytes())
	}
}

// TestMuxBulkNotStarved pins the weighted round robin's other half: with a
// long-lived critical stream and a bulk stream both eligible, the bulk stream
// gets one turn per muxCriticalWeight critical sends instead of waiting for
// the critical queue to empty.
func TestMuxBulkNotStarved(t *testing.T) {
	m := newMuxSender(16, 1<<20, 1<<20)
	m.add("http://a.test/app.js", "application/javascript", 200, make([]byte, 16*muxCriticalWeight*3), 0, int64(16*muxCriticalWeight*3))
	bulk := m.add("http://a.test/hero.png", "image/png", 200, make([]byte, 16), 0, 16)
	sawBulk := -1
	for i := 0; ; i++ {
		frame, _, ok := nextTestFrame(m)
		if !ok {
			break
		}
		if parseMuxFrame(t, frame).id == bulk.id {
			sawBulk = i
			break
		}
	}
	if sawBulk < 0 {
		t.Fatal("bulk stream never scheduled")
	}
	if sawBulk > muxCriticalWeight+2 {
		t.Fatalf("bulk first scheduled at frame %d — starved past the %d:1 weight", sawBulk, muxCriticalWeight)
	}
}

// TestMuxZeroWindowStreamNeverWrites is the flow-control strictness contract:
// a stream with no window emits nothing — not even its open frame — and a
// WINDOW_UPDATE credit unblocks it.
func TestMuxZeroWindowStreamNeverWrites(t *testing.T) {
	m := newMuxSender(32, 1<<20, 1<<20)
	s := m.add("http://a.test/x.bin", "application/octet-stream", 200, make([]byte, 100), 0, 100)
	s.window = 0
	if _, _, ok := nextTestFrame(m); ok {
		t.Fatal("zero-window stream produced a frame")
	}
	m.credit(s.id, 40)
	frame, _, ok := nextTestFrame(m)
	if !ok {
		t.Fatal("credited stream still blocked")
	}
	if f := parseMuxFrame(t, frame); f.typ != TStreamOpen {
		t.Fatalf("first frame type %d, want open", f.typ)
	}
	// The 40-byte credit covers 40 of 100 body bytes: two 32/8-byte chunks,
	// then blocked again.
	var sent int
	for {
		frame, n, ok := nextTestFrame(m)
		if !ok {
			break
		}
		if f := parseMuxFrame(t, frame); f.typ != TStreamData {
			t.Fatalf("unexpected type %d", f.typ)
		}
		sent += n
	}
	if sent != 40 {
		t.Fatalf("stream sent %d bytes on a 40-byte window", sent)
	}
	if s.window != 0 {
		t.Fatalf("window = %d after exhausting credit", s.window)
	}
	// Connection-level credit (id 0) alone must not unblock a stream whose
	// own window is empty.
	m.credit(0, 1<<20)
	if _, _, ok := nextTestFrame(m); ok {
		t.Fatal("stream wrote without stream-level credit")
	}
	m.credit(s.id, 1<<20)
	for {
		if _, _, ok := nextTestFrame(m); !ok {
			break
		}
	}
	if m.live != 0 {
		t.Fatalf("live = %d after drain", m.live)
	}
}

// TestMuxConnWindowGatesAllStreams: an exhausted connection-level window
// blocks data on every stream even when stream windows have credit.
func TestMuxConnWindowGatesAllStreams(t *testing.T) {
	m := newMuxSender(32, 1<<20, 48)
	m.add("http://a.test/a.bin", "application/octet-stream", 200, make([]byte, 100), 0, 100)
	m.add("http://a.test/b.bin", "application/octet-stream", 200, make([]byte, 100), 0, 100)
	var sent int
	opens := 0
	for {
		frame, n, ok := nextTestFrame(m)
		if !ok {
			break
		}
		if parseMuxFrame(t, frame).typ == TStreamOpen {
			opens++
		}
		sent += n
	}
	if sent != 48 {
		t.Fatalf("sent %d data bytes on a 48-byte connection window", sent)
	}
	if opens != 2 {
		t.Fatalf("opens = %d, want 2 (opens are window-free)", opens)
	}
	m.credit(0, 1000)
	sent = 0
	for {
		_, n, ok := nextTestFrame(m)
		if !ok {
			break
		}
		sent += n
	}
	if sent != 152 {
		t.Fatalf("post-credit drain sent %d, want remaining 152", sent)
	}
}

// TestMetaRoundTrip exercises the HPACK-lite codec: same-origin URLs shrink
// to prefix-indexed form and everything decodes back bit-exact.
func TestMetaRoundTrip(t *testing.T) {
	var enc MetaEncoder
	var dec MetaDecoder
	cases := []struct {
		url, ct string
		status  int
	}{
		{"http://www.shop.test/index.html", "text/html", 200},
		{"http://www.shop.test/main.css", "text/css", 200},
		{"http://cdn.shop.test/app.js", "application/javascript", 200},
		{"http://cdn.shop.test/very/deep/path/img.png", "image/png", 200},
		{"http://www.shop.test/hero.jpg", "image/jpeg", 404},
		{"no-scheme-url", "application/x-custom", 301},
	}
	var firstLen, secondLen int
	for i, c := range cases {
		buf := enc.AppendMeta(nil, c.url, c.ct, c.status)
		switch i {
		case 0:
			firstLen = len(buf)
		case 1:
			secondLen = len(buf)
		}
		url, ct, status, rest, err := dec.ReadMeta(buf)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if url != c.url || ct != c.ct || status != c.status || len(rest) != 0 {
			t.Fatalf("case %d round-trip: got (%q,%q,%d) rest=%d", i, url, ct, status, len(rest))
		}
	}
	// The second shop.test URL rides the dynamic table: strictly smaller than
	// a literal encoding of the same-length URL would be.
	if secondLen >= firstLen {
		t.Fatalf("no prefix compression: first=%d second=%d", firstLen, secondLen)
	}
	// Truncated metadata must error, never panic.
	full := enc.AppendMeta(nil, "http://x.test/a", "text/html", 200)
	for i := 0; i < len(full); i++ {
		var d2 MetaDecoder
		if _, _, _, _, err := d2.ReadMeta(full[:i]); err == nil && i < len(full)-1 {
			_ = err // prefixes may parse when a shorter valid encoding exists
		}
	}
}

// TestMuxEndToEnd is the stream-layer analogue of TestEndToEndPageLoad: a
// mux client gets every object byte-exact, and — the §4.5 barrier — the
// completion note arrives only after every stream has fully drained.
func TestMuxEndToEnd(t *testing.T) {
	proxyAddr, mainURL, archive := startStack(t, sched.ConfigIND)
	client, err := Dial(proxyAddr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.RequestPage(mainURL, "parcel-test/1.0", "720x1280"); err != nil {
		t.Fatal(err)
	}
	note, err := client.WaitComplete(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if note.ObjectsPushed != archive.Len() {
		t.Fatalf("pushed %d objects, archive has %d (received: %v)",
			note.ObjectsPushed, archive.Len(), client.Objects())
	}
	// Completion is a barrier: every pushed object is already resident.
	if got := len(client.Objects()); got != archive.Len() {
		t.Fatalf("complete arrived with %d/%d objects resident", got, archive.Len())
	}
	for _, u := range archive.URLs() {
		p, err := client.Object(u, time.Second)
		if err != nil {
			t.Fatalf("missing %s: %v", u, err)
		}
		want, _ := archive.Get(u)
		if !bytes.Equal(p.Body, want.Body) {
			t.Fatalf("object %s corrupted in transit (%d vs %d bytes)", u, len(p.Body), len(want.Body))
		}
	}
	if client.FirstCriticalAt.IsZero() {
		t.Fatal("no first-critical timestamp recorded")
	}
	if client.Fallbacks != 0 {
		t.Fatalf("fallbacks = %d, want 0", client.Fallbacks)
	}
}

// TestMuxGatedCriticalCompletesBeforeBulk is the deterministic end-to-end
// priority test: the session's conn is gated shut while the ONLD flush admits
// the whole page atomically, so when the gate opens the scheduler alone
// decides delivery order — and every render-blocking object must complete
// before any image.
func TestMuxGatedCriticalCompletesBeforeBulk(t *testing.T) {
	defer leakcheck.Check(t)()
	archive, mainURL := testArchive()
	origin, err := StartOrigin("127.0.0.1:0", replay.Rewriting{Store: archive})
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	g := newGate()
	proxy, err := StartProxy("127.0.0.1:0", ProxyConfig{
		OriginAddr:  origin.Addr(),
		Sched:       sched.ConfigONLD,
		QuietPeriod: 300 * time.Millisecond,
		FixedRandom: true,
		WrapConn:    func(c net.Conn) net.Conn { return &gatedConn{Conn: c, g: g} },
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
	if err := client.RequestPage(mainURL, "", ""); err != nil {
		t.Fatal(err)
	}
	// The ONLD flush admits every onload-visible object under one lock hold;
	// QueuedBytes going nonzero means the admission already happened (the
	// writer is still stuck on the gate, holding the settings frame).
	waitFor(t, 10*time.Second, func() bool { return proxy.QueuedBytes() > 0 })
	g.Open()
	if _, err := client.WaitComplete(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	order := client.Objects()
	if len(order) < archive.Len()-1 {
		t.Fatalf("only %d objects arrived: %v", len(order), order)
	}
	lastCritical, firstBulk := -1, -1
	for i, u := range order {
		// Classify by the received part's content type: script execution on
		// the proxy can discover objects (dynamic fetches) that are not in
		// the static archive.
		obj, err := client.Object(u, time.Second)
		if err != nil {
			t.Fatalf("received object %s not retrievable: %v", u, err)
		}
		if prioClass(obj.ContentType) == muxClassCritical {
			lastCritical = i
		} else if firstBulk == -1 {
			firstBulk = i
		}
	}
	if lastCritical == -1 || firstBulk == -1 {
		t.Fatalf("page lacks both classes: %v", order)
	}
	if firstBulk < lastCritical {
		t.Fatalf("bulk object completed at %d before critical at %d: %v", firstBulk, lastCritical, order)
	}
}

// TestMuxSmallWindowsFlowControl forces heavy WINDOW_UPDATE traffic: windows
// far below the page size mean the proxy repeatedly exhausts both levels and
// only the client's credits keep data flowing. The page must still arrive
// complete and byte-exact.
func TestMuxSmallWindowsFlowControl(t *testing.T) {
	defer leakcheck.Check(t)()
	archive, mainURL := bigArchive(8, 16<<10)
	origin, err := StartOrigin("127.0.0.1:0", replay.Rewriting{Store: archive})
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	proxy, err := StartProxy("127.0.0.1:0", ProxyConfig{
		OriginAddr:      origin.Addr(),
		Sched:           sched.ConfigIND,
		QuietPeriod:     300 * time.Millisecond,
		MuxChunkSize:    1 << 10,
		MuxStreamWindow: 4 << 10,
		MuxConnWindow:   8 << 10,
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
	note, err := client.WaitComplete(20 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if note.ObjectsPushed != archive.Len() {
		t.Fatalf("pushed %d, want %d", note.ObjectsPushed, archive.Len())
	}
	for _, u := range archive.URLs() {
		p, err := client.Object(u, time.Second)
		if err != nil {
			t.Fatalf("missing %s: %v", u, err)
		}
		want, _ := archive.Get(u)
		if !bytes.Equal(p.Body, want.Body) {
			t.Fatalf("object %s corrupted under flow control", u)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return proxy.QueuedBytes() == 0 })
}

// TestMuxReconnectResumesMidStream kills the connection partway through a
// large object push (netem KillAfterBytes): the client must reconnect with a
// partial manifest, the proxy must reopen the stream at the recorded offset,
// and the reassembled object must be byte-exact — the §4.5 resume extended
// below object granularity.
func TestMuxReconnectResumesMidStream(t *testing.T) {
	defer leakcheck.Check(t)()
	const bigSize = 256 << 10
	const main = "http://resume.test/index.html"
	archive := replay.NewArchive()
	archive.Record(httpsim.Object{URL: main, ContentType: "text/html",
		Body: []byte(`<!DOCTYPE html><html><body><img src="/big.png"></body></html>`)})
	bigBody := bytes.Repeat([]byte("R"), bigSize)
	archive.Record(httpsim.Object{URL: "http://resume.test/big.png", ContentType: "image/png", Body: bigBody})

	origin, err := StartOrigin("127.0.0.1:0", replay.Rewriting{Store: archive})
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	proxy, err := StartProxy("127.0.0.1:0", ProxyConfig{
		OriginAddr:  origin.Addr(),
		Sched:       sched.ConfigIND,
		QuietPeriod: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// Only the first connection dies; the reconnect runs clean.
	dials := 0
	cfg := fastRecovery()
	cfg.Dial = func(network, addr string) (net.Conn, error) {
		conn, err := net.Dial(network, addr)
		if err != nil {
			return nil, err
		}
		dials++
		if dials == 1 {
			return netem.Wrap(conn, netem.Params{KillAfterBytes: 40 << 10}), nil
		}
		return conn, nil
	}
	client, err := DialConfig(proxy.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.RequestPage(main, "", ""); err != nil {
		t.Fatal(err)
	}
	note, err := client.WaitComplete(20 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if client.Resumes == 0 {
		t.Fatal("connection was never killed/resumed — test setup broken")
	}
	if client.PartialResumes == 0 {
		t.Fatalf("no mid-stream resume recorded (resumes=%d, note=%+v)", client.Resumes, note)
	}
	if note.Resumed == 0 {
		t.Fatalf("proxy note reports no resumed streams: %+v", note)
	}
	p, err := client.Object("http://resume.test/big.png", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.Body, bigBody) {
		t.Fatalf("resumed object corrupted: got %d bytes, want %d", len(p.Body), len(bigBody))
	}
}

// TestMuxAssemblerRejectsCorruptFrames pins the decoder's failure mode:
// corrupt frames produce errors, never panics or silent corruption.
func TestMuxAssemblerRejectsCorruptFrames(t *testing.T) {
	a := newMuxAssembler(func(string) []byte { return nil })
	if err := a.onSettings([]byte{1, 2}); err == nil {
		t.Fatal("short settings accepted")
	}
	if _, err := a.onOpen([]byte{0, 0, 0, 1, 0}); err == nil {
		t.Fatal("short open accepted")
	}
	if _, _, err := a.onData([]byte{0, 0}); err == nil {
		t.Fatal("short data accepted")
	}
	if _, _, err := a.onData([]byte{0, 0, 0, 9, 0, 'x'}); err == nil {
		t.Fatal("data for unknown stream accepted")
	}
	// A stream that overflows its declared size must error.
	var enc MetaEncoder
	open := binary.BigEndian.AppendUint32(nil, 7)
	open = append(open, 0, byte(muxClassBulk))
	open = binary.AppendUvarint(open, 0) // offset
	open = binary.AppendUvarint(open, 4) // total
	open = enc.AppendMeta(open, "http://x.test/a.bin", "application/octet-stream", 200)
	if _, err := a.onOpen(open); err != nil {
		t.Fatal(err)
	}
	data := binary.BigEndian.AppendUint32(nil, 7)
	data = append(data, 0)
	data = append(data, []byte("12345")...) // 5 > declared 4
	if _, _, err := a.onData(data); err == nil {
		t.Fatal("overflowing stream accepted")
	}
}

// TestMuxResumeOffsetMismatch: a proxy reopening a stream at an offset the
// client does not hold must produce a protocol error, not corrupt data.
func TestMuxResumeOffsetMismatch(t *testing.T) {
	a := newMuxAssembler(func(string) []byte { return []byte("12") })
	var enc MetaEncoder
	open := binary.BigEndian.AppendUint32(nil, 1)
	open = append(open, 0, byte(muxClassBulk))
	open = binary.AppendUvarint(open, 8)  // offset the client cannot cover
	open = binary.AppendUvarint(open, 16) // total
	open = enc.AppendMeta(open, "http://x.test/a.bin", "application/octet-stream", 200)
	if _, err := a.onOpen(open); err == nil {
		t.Fatal("offset mismatch accepted")
	}
}

// TestFrameBufPool pins the recycling contract: released buffers come back
// on the next same-bucket grab, foreign slices are dropped silently, and
// zero-length grabs cost nothing.
func TestFrameBufPool(t *testing.T) {
	if b := grabFrameBuf(0); b != nil {
		t.Fatalf("zero grab returned %d bytes", len(b))
	}
	buf := grabFrameBuf(1000)
	if len(buf) != 1000 || cap(buf) != 1024 {
		t.Fatalf("grab(1000): len=%d cap=%d", len(buf), cap(buf))
	}
	buf[0] = 0xAB
	ReleaseFrameBuf(buf)
	again := grabFrameBuf(700) // same 1 KB bucket: must come back recycled
	if cap(again) != 1024 {
		t.Fatalf("recycled grab cap=%d, want 1024", cap(again))
	}
	ReleaseFrameBuf(again)
	// Foreign capacities are rejected without effect.
	ReleaseFrameBuf(make([]byte, 777))
	ReleaseFrameBuf(nil)
}

// TestWireBenchAllocFree pins the steady-state mux wire path at (amortized)
// zero allocations per frame and per batch: the writer reuses its batch and
// sends data chunks in place, the
// assembler appends into the body buffer preallocated at stream open, and the
// HPACK-lite encoder indexes a repeat origin into the caller's buffer. The
// per-cycle stream setup amortizes across the cycle's frames, so anything
// near one alloc per op means the per-chunk path regressed. (Meta decode
// materializes a URL string per object, so it is measured by bench/ and not
// gated.)
func TestWireBenchAllocFree(t *testing.T) {
	wb := NewWireBench(1<<20, 16<<10)
	if avg := testing.AllocsPerRun(1000, func() { wb.EncodeStep() }); avg > 0.5 {
		t.Errorf("EncodeStep allocates %.2f/op, want amortized 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := wb.DecodeStep(); err != nil {
			t.Fatal(err)
		}
	}); avg > 0.5 {
		t.Errorf("DecodeStep allocates %.2f/op, want amortized 0", avg)
	}
	// A whole writer pass: fill one batch (about batchBytes of frames) and
	// write it, flattened into one Write (io.Discard cannot gather) and
	// gathered into one writev on a loopback *net.TCPConn.
	if avg := testing.AllocsPerRun(100, func() {
		if err := wb.encodeBatch(io.Discard); err != nil {
			t.Fatal(err)
		}
	}); avg > 0 {
		t.Errorf("flattened batch allocates %.2f/op, want 0", avg)
	}
	c, peer := loopback(t)
	go func() {
		buf := make([]byte, 64<<10)
		for {
			if _, err := peer.Read(buf); err != nil {
				return
			}
		}
	}()
	if avg := testing.AllocsPerRun(100, func() {
		if err := wb.encodeBatch(c); err != nil {
			t.Fatal(err)
		}
	}); avg > 0 {
		t.Errorf("gathered batch allocates %.2f/op, want 0", avg)
	}
	// The first call inserts the origin prefix; the measured one is the
	// indexed repeat-origin path a bundle's tail objects take.
	var enc MetaEncoder
	dst := enc.AppendMeta(nil, "https://bench.test/assets/app.css", "text/css", 200)
	if avg := testing.AllocsPerRun(1000, func() {
		dst = enc.AppendMeta(dst[:0], "https://bench.test/assets/hero.png", "image/png", 200)
	}); avg > 0 {
		t.Errorf("AppendMeta on a repeat origin allocates %.2f/op, want 0", avg)
	}
}

// TestMuxReorderedOpensKeepMetaTablesInSync is the regression test for the
// HPACK-lite desync found under 200-tenant load: the bundler queues a bulk
// image (origin A) before a critical stylesheet (origin B), but the priority
// scheduler emits the stylesheet's open first. The encoder must insert
// dynamic-table prefixes in emission order — the order the decoder sees —
// or every later indexed URL resolves to the wrong origin.
func TestMuxReorderedOpensKeepMetaTablesInSync(t *testing.T) {
	m := newMuxSender(64, 1<<20, 1<<20)
	m.add("http://cdn-a.test/hero.png", "image/png", 200, []byte("PNG"), 0, 3)
	m.add("http://cdn-b.test/app.css", "text/css", 200, []byte("b{}"), 0, 3)
	// Second objects from each origin take the indexed path.
	m.add("http://cdn-a.test/thumb.png", "image/png", 200, []byte("png"), 0, 3)
	m.add("http://cdn-b.test/site.css", "text/css", 200, []byte("i{}"), 0, 3)

	a := newMuxAssembler(func(string) []byte { return nil })
	if err := a.onSettings(m.settingsPayload()); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for {
		frame, _, ok := nextTestFrame(m)
		if !ok {
			break
		}
		payload := frame[5:]
		switch frame[0] {
		case TStreamOpen:
			if _, err := a.onOpen(payload); err != nil {
				t.Fatalf("open rejected: %v", err)
			}
		case TStreamData:
			part, _, err := a.onData(payload)
			if err != nil {
				t.Fatalf("data rejected: %v", err)
			}
			if part != nil {
				got[part.URL] = true
			}
		}
	}
	for _, u := range []string{
		"http://cdn-a.test/hero.png", "http://cdn-b.test/app.css",
		"http://cdn-a.test/thumb.png", "http://cdn-b.test/site.css",
	} {
		if !got[u] {
			t.Errorf("object %s never assembled (URL decoded against a desynced table?)", u)
		}
	}
}

package parcelnet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/parcel-go/parcel/internal/httpsim"
	"github.com/parcel-go/parcel/internal/leakcheck"
	"github.com/parcel-go/parcel/internal/replay"
)

// pipeProxy is a scripted proxy on the far end of net.Pipe connections: each
// client dial hands the test the server end of a fresh pipe.
type pipeProxy struct{ conns chan net.Conn }

func newPipeProxy() *pipeProxy { return &pipeProxy{conns: make(chan net.Conn, 4)} }

func (p *pipeProxy) dial(string, string) (net.Conn, error) {
	client, server := net.Pipe()
	p.conns <- server
	return client, nil
}

// pipeFrame is one frame the client wrote.
type pipeFrame struct {
	typ     byte
	payload []byte
}

// accept takes the next connection the client dialled and reads its frames
// until it closes.
func (p *pipeProxy) accept(t *testing.T) (net.Conn, <-chan pipeFrame) {
	t.Helper()
	var conn net.Conn
	select {
	case conn = <-p.conns:
	case <-time.After(5 * time.Second):
		t.Fatal("client never dialled")
	}
	frames := make(chan pipeFrame, 16)
	go func() {
		defer close(frames)
		br := bufio.NewReader(conn)
		for {
			typ, payload, err := ReadFramePooled(br)
			if err != nil {
				return
			}
			frames <- pipeFrame{typ, append([]byte(nil), payload...)}
			ReleaseFrameBuf(payload)
		}
	}()
	return conn, frames
}

// next returns the next frame of type typ the client wrote, skipping others.
func next(t *testing.T, frames <-chan pipeFrame, typ byte) pipeFrame {
	t.Helper()
	for deadline := time.After(5 * time.Second); ; {
		select {
		case f, ok := <-frames:
			if !ok {
				t.Fatalf("connection closed before frame type %d", typ)
			}
			if f.typ == typ {
				return f
			}
		case <-deadline:
			t.Fatalf("no frame of type %d", typ)
		}
	}
}

// countRequests drains what the client has written so far, after a grace
// period for writes under way, and counts its object requests.
func countRequests(frames <-chan pipeFrame) (n int) {
	for grace := time.After(100 * time.Millisecond); ; {
		select {
		case f, ok := <-frames:
			if !ok {
				return n
			}
			if f.typ == TObjectRequest {
				n++
			}
		case <-grace:
			return n
		}
	}
}

func writeJSONFrame(t *testing.T, conn net.Conn, typ byte, v any) {
	t.Helper()
	payload, err := json.Marshal(v)
	if err == nil {
		err = WriteFrame(conn, typ, payload)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// objects calls Object(url) from n goroutines at once and returns their
// errors once all have returned.
func objects(c *Client, url string, n int, timeout time.Duration) []error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = c.Object(url, timeout)
		}()
	}
	wg.Wait()
	return errs
}

// TestShedObjectFetchedOnce: a shed object reaches the origin once, however
// many fetches race for it — the client's eager fetch after the shed note and
// two concurrent Object calls.
func TestShedObjectFetchedOnce(t *testing.T) {
	defer leakcheck.Check(t)()
	const url = "http://shed.test/big.bin"
	body := bytes.Repeat([]byte("s"), 200<<10)
	archive := replay.NewArchive()
	archive.Record(httpsim.Object{URL: url, ContentType: "application/octet-stream", Body: body})
	origin, err := StartOrigin("127.0.0.1:0", replay.Rewriting{Store: archive})
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	pp := newPipeProxy()
	client, err := DialConfig("pipe", ClientConfig{Dial: pp.dial, DirectOrigin: origin.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	conn, frames := pp.accept(t)
	defer conn.Close()
	if err := client.RequestPage("http://shed.test/", "", ""); err != nil {
		t.Fatal(err)
	}
	next(t, frames, TPageRequest)
	writeJSONFrame(t, conn, TShed, ShedNote{URLs: []string{url}})
	for _, err := range objects(client, url, 2, 5*time.Second) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if p, _ := client.Object(url, 0); !bytes.Equal(p.Body, body) {
		t.Fatalf("shed object is %d bytes, want %d", len(p.Body), len(body))
	}
	client.mu.Lock()
	direct := client.DirectFetches
	client.mu.Unlock()
	if got := origin.Requests(); got != 1 || direct != 1 {
		t.Errorf("origin saw %d requests, client made %d direct fetches; want 1 and 1", got, direct)
	}
}

// TestMissingObjectRequestedOncePerConnection: concurrent Object calls for
// one missing object send one TObjectRequest on a connection — after the
// completion note, or once the object is shed with no direct path — and
// another only on the next connection, once its note arrives.
func TestMissingObjectRequestedOncePerConnection(t *testing.T) {
	defer leakcheck.Check(t)()
	const url = "http://a.test/missing.png"
	t.Run("after the note", func(t *testing.T) {
		pp := newPipeProxy()
		client, err := DialConfig("pipe", ClientConfig{Dial: pp.dial})
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		conn, frames := pp.accept(t)
		defer conn.Close()
		if err := client.RequestPage("http://a.test/", "", ""); err != nil {
			t.Fatal(err)
		}
		next(t, frames, TPageRequest)
		writeJSONFrame(t, conn, TComplete, CompleteNote{})
		if _, err := client.WaitComplete(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		objects(client, url, 3, 200*time.Millisecond)
		client.mu.Lock()
		fallbacks := client.Fallbacks
		client.mu.Unlock()
		if n := countRequests(frames); n != 1 || fallbacks != 1 {
			t.Errorf("%d TObjectRequest frames, %d fallbacks; want 1 and 1", n, fallbacks)
		}
	})
	t.Run("shed, then a reconnect", func(t *testing.T) {
		pp := newPipeProxy()
		client, err := DialConfig("pipe", ClientConfig{Dial: pp.dial, BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		conn, frames := pp.accept(t)
		if err := client.RequestPage("http://a.test/", "", ""); err != nil {
			t.Fatal(err)
		}
		next(t, frames, TPageRequest)
		writeJSONFrame(t, conn, TShed, ShedNote{URLs: []string{url}})
		done := make(chan []error)
		go func() { done <- objects(client, url, 3, 10*time.Second) }()
		next(t, frames, TObjectRequest)
		if n := countRequests(frames); n != 0 {
			t.Errorf("%d more TObjectRequest frames on the first connection, want none", n)
		}
		conn.Close()
		conn, frames = pp.accept(t)
		defer conn.Close()
		next(t, frames, TPageRequest)
		if n := countRequests(frames); n != 0 {
			t.Errorf("%d TObjectRequest frames before the resumed page's note, want none", n)
		}
		writeJSONFrame(t, conn, TComplete, CompleteNote{})
		next(t, frames, TObjectRequest)
		if n := countRequests(frames); n != 0 {
			t.Errorf("%d more TObjectRequest frames on the second connection, want none", n)
		}
		client.Close()
		for _, err := range <-done {
			if !errors.Is(err, ErrClosed) {
				t.Errorf("Object after Close: %v, want ErrClosed", err)
			}
		}
		client.mu.Lock()
		fallbacks, resumes := client.Fallbacks, client.Resumes
		client.mu.Unlock()
		if fallbacks != 2 || resumes != 1 {
			t.Errorf("fallbacks %d, resumes %d; want 2 and 1", fallbacks, resumes)
		}
	})
}

// TestDrainAfterCompleteIsNotDegraded: a drain after the page completed,
// with no direct path, ends the connection as the proxy being gone — the
// client is not degraded, a missing object fails with ErrProxyGone — and the
// completed load stays completed.
func TestDrainAfterCompleteIsNotDegraded(t *testing.T) {
	defer leakcheck.Check(t)()
	pp := newPipeProxy()
	client, err := DialConfig("pipe", ClientConfig{Dial: pp.dial})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	conn, frames := pp.accept(t)
	defer conn.Close()
	if err := client.RequestPage("http://a.test/", "", ""); err != nil {
		t.Fatal(err)
	}
	next(t, frames, TPageRequest)
	writeJSONFrame(t, conn, TComplete, CompleteNote{})
	writeJSONFrame(t, conn, TDrain, DrainNote{})
	if _, err := client.WaitComplete(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Object("http://a.test/missing.png", 5*time.Second); !errors.Is(err, ErrProxyGone) {
		t.Errorf("Object after the drain: %v, want ErrProxyGone", err)
	}
	if client.Degraded() {
		t.Error("a client with no direct path reads as degraded after a drain")
	}
	if load := client.SessionLoad(0); !load.Completed || !load.Drained {
		t.Errorf("session load %+v: want completed and drained", load)
	}
}

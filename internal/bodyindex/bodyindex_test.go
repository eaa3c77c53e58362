package bodyindex

import (
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
	"weak"
)

// put indexes body under the index's own lock, as a memo does.
func put[V any](mu *sync.RWMutex, x *Index[V], body []byte, v V) {
	mu.Lock()
	x.Put(x.Epoch(), body, v)
	mu.Unlock()
}

func TestGetIsByIdentity(t *testing.T) {
	var mu sync.RWMutex
	x := New[int](&mu)
	body := []byte("<html><body>one body object</body></html>")
	put(&mu, x, body, 7)
	if v, ok := x.Get(body); !ok || v != 7 {
		t.Fatalf("Get(same slice) = %d, %v; want 7, true", v, ok)
	}
	if _, ok := x.Get(append([]byte(nil), body...)); ok {
		t.Fatal("a copy with the same content hit: the index must key by identity")
	}
	if _, ok := x.Get(body[:len(body)-1]); ok {
		t.Fatal("a shorter slice of the same array hit: the key includes the length")
	}
	if _, ok := x.Get(body[1:]); ok {
		t.Fatal("a slice at another offset hit")
	}
	put(&mu, x, nil, 1)
	put(&mu, x, body[:0], 1)
	if x.Len() != 1 {
		t.Fatalf("empty bodies were indexed: %d entries", x.Len())
	}
	runtime.KeepAlive(body)
}

func TestClearStartsNewEpoch(t *testing.T) {
	var mu sync.RWMutex
	x := New[int](&mu)
	body := []byte("stylesheet body")
	stale := x.Epoch()
	x.Clear()
	put(&mu, x, body, 1)
	mu.Lock()
	x.Put(stale, []byte("put from before the clear"), 2)
	mu.Unlock()
	if x.Len() != 1 {
		t.Fatalf("Put with a pre-Clear epoch was indexed: %d entries", x.Len())
	}
	x.Clear()
	if _, ok := x.Get(body); ok || x.Len() != 0 {
		t.Fatal("Clear left an entry")
	}
}

// staticBody is linker-allocated: it is not in the Go heap, so it cannot be
// watched and must bypass the index (weak.Make would abort the process).
var staticBody = []byte("<p>package-level body</p>")

const constBody = "var read_only_body = 1;"

func TestNonHeapBodiesBypass(t *testing.T) {
	var mu sync.RWMutex
	x := New[int](&mu)
	put(&mu, x, staticBody, 1)
	put(&mu, x, unsafe.Slice(unsafe.StringData(constBody), len(constBody)), 2)
	if x.Len() != 0 {
		t.Fatalf("non-heap bodies were indexed: %d entries", x.Len())
	}
}

// TestDroppedBodyIsCollected: the index holds no strong reference, so a
// body nobody else holds is freed, and its cleanup drops the entry.
func TestDroppedBodyIsCollected(t *testing.T) {
	var mu sync.RWMutex
	x := New[int](&mu)
	body := make([]byte, 64<<10)
	freed := weak.Make(&body[0])
	put(&mu, x, body, 1)
	body = nil
	waitGC(t, func() bool {
		mu.RLock()
		defer mu.RUnlock()
		return freed.Value() == nil && x.Len() == 0
	})
}

// waitGC collects until done reports true: cleanups run on their own
// goroutine after the collection that frees the object.
func waitGC(t *testing.T, done func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !done() {
		if time.Now().After(deadline) {
			t.Fatal("body still reachable or its entry still indexed after repeated GC")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestCleanupKeepsReplacement: the cleanup of an earlier Put must not drop
// the entry a later Put of the same key made.
func TestCleanupKeepsReplacement(t *testing.T) {
	var mu sync.RWMutex
	x := New[int](&mu)
	body := make([]byte, 1024)
	put(&mu, x, body, 1)
	first := x.gen
	x.Clear()
	put(&mu, x, body, 2)
	k := keyOf(body)
	drop(dropArg[int]{x, k, first})
	if v, ok := x.Get(body); !ok || v != 2 {
		t.Fatalf("a stale cleanup dropped the replacement entry (%d, %v)", v, ok)
	}
	drop(dropArg[int]{x, k, x.gen})
	if x.Len() != 0 {
		t.Fatal("the entry's own cleanup did not drop it")
	}
	runtime.KeepAlive(body)
}

func TestGetDoesNotAllocate(t *testing.T) {
	var mu sync.RWMutex
	x := New[int](&mu)
	body := make([]byte, 4096)
	put(&mu, x, body, 1)
	if n := testing.AllocsPerRun(1000, func() {
		mu.RLock()
		x.Get(body)
		mu.RUnlock()
	}); n != 0 {
		t.Fatalf("Get allocates %.1f/op", n)
	}
}

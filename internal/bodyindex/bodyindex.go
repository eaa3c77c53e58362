// Package bodyindex is the identity front of the content-keyed memos
// (minijs.CompileBytes, discovery.HTML, discovery.CSSRefs). A memo keyed by
// content pays a hash and a byte-for-byte compare of the whole body on every
// hit; the same body object is looked up again and again (every scheme, round
// and tenant loading one page holds the one slice the origin store or the
// object cache handed out), so the index remembers which artifact a body
// object — its start address and length — already resolved to, and a repeat
// lookup costs a 16-byte key.
//
// The contract that makes this sound is the one the hosts already keep:
// bodies are immutable once handed out (httpsim.Object.Pinned, the object
// cache's shared slices). Under -tags simdebug every index hit is re-checked
// against the content map and a mutated body panics.
//
// The index never keeps a body alive. An entry holds a weak pointer to the
// body's first byte, and a hit counts only while that pointer still resolves
// to the same address, so a freed body whose memory was reused at the same
// address and length is a miss, never a stale hit. A cleanup registered on
// the body drops its entry once the body is collected.
package bodyindex

import (
	"runtime"
	"sync"
	"unsafe"
	"weak"
)

// maxEntries bounds an index. Entries of collected bodies are dropped by
// their cleanups, so only bodies still alive count; past the bound the index
// is cleared outright, which costs re-hashing, never a result.
const maxEntries = 8192

type key struct {
	addr uintptr
	n    int
}

type entry[V any] struct {
	body weak.Pointer[byte]
	gen  uint64 // which Put made the entry; its cleanup drops only that one
	v    V
}

// Index maps body identities to the artifact the owning memo holds for that
// body's content. It is guarded by the memo's lock: Get needs it held for
// reading, Put and Clear for writing, and the cleanups of collected bodies
// take it for writing themselves.
type Index[V any] struct {
	mu    *sync.RWMutex
	m     map[key]entry[V]
	gen   uint64
	epoch uint64
}

// New returns an empty index guarded by mu.
func New[V any](mu *sync.RWMutex) *Index[V] {
	return &Index[V]{mu: mu, m: make(map[key]entry[V], 64)}
}

func keyOf(body []byte) key {
	return key{uintptr(unsafe.Pointer(unsafe.SliceData(body))), len(body)}
}

// Get returns the artifact indexed for this body object. An empty body is
// never indexed.
func (x *Index[V]) Get(body []byte) (v V, ok bool) {
	if len(body) == 0 {
		return v, false
	}
	e, ok := x.m[keyOf(body)]
	if !ok || e.body.Value() != unsafe.SliceData(body) {
		return v, false
	}
	return e.v, true
}

// Epoch names the index's current generation of contents. A caller that
// resolves a body outside the lock reads it first and hands it to Put, so an
// artifact from before a Clear is never indexed after it.
func (x *Index[V]) Epoch() uint64 { return x.epoch }

// Put indexes body as resolving to v, unless the index was cleared since
// epoch was read. Bodies outside the Go heap (package-level data, read-only
// memory) are not indexed: their lookups stay content-keyed.
func (x *Index[V]) Put(epoch uint64, body []byte, v V) {
	if len(body) == 0 || epoch != x.epoch {
		return
	}
	if len(x.m) >= maxEntries {
		clear(x.m)
	}
	p := unsafe.SliceData(body)
	k := keyOf(body)
	x.gen++
	if !watch(p, dropArg[V]{x, k, x.gen}) {
		return
	}
	x.m[k] = entry[V]{body: weak.Make(p), gen: x.gen, v: v}
}

// Clear empties the index and starts a new epoch.
func (x *Index[V]) Clear() {
	clear(x.m)
	x.epoch++
}

// Len reports the number of indexed bodies.
func (x *Index[V]) Len() int { return len(x.m) }

type dropArg[V any] struct {
	x   *Index[V]
	k   key
	gen uint64
}

// drop is the cleanup of a collected body: it removes the body's entry unless
// a later Put (of a new body at the same address) replaced it.
func drop[V any](a dropArg[V]) {
	a.x.mu.Lock()
	if e, ok := a.x.m[a.k]; ok && e.gen == a.gen {
		delete(a.x.m, a.k)
	}
	a.x.mu.Unlock()
}

// watch registers drop to run once the object holding p is collected, and
// reports whether p is in the Go heap at all: runtime.AddCleanup returns a
// zero Cleanup for linker-allocated data and panics for memory it does not
// manage. Only a heap pointer may be passed to weak.Make.
func watch[V any](p *byte, a dropArg[V]) (heap bool) {
	defer func() {
		if recover() != nil {
			heap = false
		}
	}()
	return runtime.AddCleanup(p, drop[V], a) != runtime.Cleanup{}
}

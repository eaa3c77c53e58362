//go:build simdebug

package httpsim

import "testing"

// These tests only exist under -tags simdebug: they prove the pendingReq
// pool ownership check actually fires. In normal builds the check compiles
// to nothing, so there is nothing to test there.

func TestDoubleFreePendingReqPanics(t *testing.T) {
	var r Pools
	pr := r.newReq()
	r.releaseReq(pr)
	defer func() {
		if recover() == nil {
			t.Fatal("double releaseReq: expected panic, got none")
		}
	}()
	r.releaseReq(pr)
}

// TestPendingReqReuseAfterFree sanity-checks the happy path under the debug
// build: allocate, free, re-allocate — the recycled request must come back
// with the pooled flag cleared so a later legitimate free succeeds.
func TestPendingReqReuseAfterFree(t *testing.T) {
	var r Pools
	pr := r.newReq()
	r.releaseReq(pr)
	q := r.newReq()
	if q != pr {
		t.Fatal("free list did not recycle the released pendingReq")
	}
	if q.pooled {
		t.Fatal("recycled pendingReq still marked pooled")
	}
	r.releaseReq(q) // must not panic
}

// TestIdleCountCheckFires proves the debug recount catches a connection that
// is idle but uncounted.
func TestIdleCountCheckFires(t *testing.T) {
	p := &pool{origin: "example.com", conns: []*pconn{{ready: true}}}
	c := &Client{poolList: []*pool{p}}
	defer func() {
		if recover() == nil {
			t.Fatal("uncounted idle connection: expected panic, got none")
		}
	}()
	checkIdle(c)
}

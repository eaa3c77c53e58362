//go:build simdebug

package minijs

import "testing"

// These tests only exist under -tags simdebug: they prove the frame-pool
// ownership check actually fires. In normal builds the check compiles to
// nothing, so there is nothing to test there.

func TestDoubleFreeFramePanics(t *testing.T) {
	in := New()
	sc := &scopeInfo{names: []string{"x"}}
	f := in.newFrame(sc, nil)
	in.freeFrame(f, sc)
	defer func() {
		if recover() == nil {
			t.Fatal("double freeFrame: expected panic, got none")
		}
	}()
	in.freeFrame(f, sc)
}

// TestFrameReuseAfterFree sanity-checks the happy path under the debug
// build: allocate, free, re-allocate — the recycled frame must come back
// with the pooled flag cleared and every slot reset, so a later legitimate
// free succeeds.
func TestFrameReuseAfterFree(t *testing.T) {
	in := New()
	sc := &scopeInfo{names: []string{"x", "y"}}
	f := in.newFrame(sc, nil)
	f.slots[0] = Number(7)
	in.freeFrame(f, sc)
	g := in.newFrame(sc, nil)
	if g != f {
		t.Fatal("free list did not recycle the released frame")
	}
	if g.pooled {
		t.Fatal("recycled frame still marked pooled")
	}
	for i, v := range g.slots {
		if v.kind() != kindUnset {
			t.Fatalf("recycled frame slot %d not reset (kind %d)", i, v.kind())
		}
	}
	in.freeFrame(g, sc) // must not panic
}

// TestEscapingFrameFreeIsNoop: releasing a frame whose scope escapes must
// leave it untouched (a closure may still hold it), so releasing twice is
// legal and must not panic even under the debug build.
func TestEscapingFrameFreeIsNoop(t *testing.T) {
	in := New()
	sc := &scopeInfo{names: []string{"x"}, escapes: true}
	f := in.newFrame(sc, nil)
	in.freeFrame(f, sc)
	in.freeFrame(f, sc) // must not panic
	if len(in.pools.framePool[1]) != 0 {
		t.Fatal("escaping frame entered the pool")
	}
}

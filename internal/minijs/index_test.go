package minijs

import (
	"bytes"
	"testing"
	"time"

	"github.com/parcel-go/parcel/internal/bodyindex"
)

// scriptBody builds a script of about n bytes.
func scriptBody(n int) []byte {
	var b bytes.Buffer
	for b.Len() < n {
		b.WriteString("var index_probe = index_probe + 1;\n")
	}
	return b.Bytes()
}

// TestCompileBytesHitCostIndependentOfSize: a repeat CompileBytes of one
// body object reads none of its bytes, so a 1 MB script costs what a 1 KB
// script does, neither allocates, and both return Compile's *Program.
func TestCompileBytesHitCostIndependentOfSize(t *testing.T) {
	small, large := scriptBody(1<<10), scriptBody(1<<20)
	for _, src := range [][]byte{small, large} {
		p, err := CompileBytes(src)
		if err != nil {
			t.Fatal(err)
		}
		if q, _ := CompileBytes(src); q != p {
			t.Fatal("an identity hit returned another *Program")
		}
		if q, _ := Compile(string(src)); q != p {
			t.Fatal("CompileBytes and Compile disagree on the *Program")
		}
		if n := testing.AllocsPerRun(100, func() { CompileBytes(src) }); n != 0 {
			t.Errorf("CompileBytes hit allocates %.1f/op, want 0", n)
		}
	}
	if bodyindex.Check {
		return // the debug build re-compares every hit's bytes
	}
	best := func(src []byte) float64 {
		min := time.Duration(1 << 62)
		for r := 0; r < 7; r++ {
			start := time.Now()
			for i := 0; i < 2000; i++ {
				CompileBytes(src)
			}
			if d := time.Since(start); d < min {
				min = d
			}
		}
		return float64(min.Nanoseconds()) / 2000
	}
	ns1k, ns1m := best(small), best(large)
	t.Logf("CompileBytes hit: %.0f ns at 1 KB, %.0f ns at 1 MB", ns1k, ns1m)
	if ns1m > 2*ns1k {
		t.Errorf("CompileBytes hit costs %.0f ns at 1 MB against %.0f ns at 1 KB: not independent of length", ns1m, ns1k)
	}
}

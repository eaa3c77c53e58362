package discovery

import (
	"bytes"
	"runtime"
	"testing"
	"time"
	"weak"

	"github.com/parcel-go/parcel/internal/bodyindex"
	"github.com/parcel-go/parcel/internal/minijs"
)

// htmlBody and cssBody build documents of about n bytes.
func htmlBody(n int) []byte {
	var b bytes.Buffer
	b.WriteString("<html><body>")
	for b.Len() < n {
		b.WriteString(`<p class="x">lorem ipsum dolor</p><img src="a.png">`)
	}
	b.WriteString("</body></html>")
	return b.Bytes()
}

func cssBody(n int) []byte {
	var b bytes.Buffer
	b.WriteString(`body{background:url(bg.png)}`)
	for b.Len() < n {
		b.WriteString(".c{color:red;margin:0 auto}\n")
	}
	return b.Bytes()
}

func TestIndexHitReturnsContentArtifact(t *testing.T) {
	Reset()
	body := htmlBody(2048)
	root, nodes, _ := HTML(body)
	copyRoot, _, _ := HTML(append([]byte(nil), body...))
	if copyRoot != root {
		t.Fatal("a copy of the body got a different tree: the content map is the source of truth")
	}
	again, againNodes, _ := HTML(body)
	if again != root || len(againNodes) != len(nodes) {
		t.Fatal("an identity hit returned a different tree from the content map's")
	}

	css := cssBody(1024)
	refs := CSSRefs(css, "http://a.test/s.css")
	if got := CSSRefs(css, "http://a.test/s.css"); !sameRefs(got, refs) {
		t.Fatal("an identity hit returned different refs from the content map's")
	}
	other := CSSRefs(css, "http://b.test/s.css")
	if len(other) != 1 || other[0].URL != "http://b.test/bg.png" {
		t.Fatalf("refs for another base URL = %+v, want one ref under b.test", other)
	}
	if got := CSSRefs(css, "http://a.test/s.css"); !sameRefs(got, refs) {
		t.Fatal("after a lookup under another base, the first base got different refs")
	}
}

// hitNanos is the fastest of several timed runs of n calls of f.
func hitNanos(n int, f func()) float64 {
	best := time.Duration(1 << 62)
	for r := 0; r < 7; r++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / float64(n)
}

// TestIndexHitCostIndependentOfSize: a repeat lookup of one body object
// reads none of its bytes, so a 1 MB body costs what a 1 KB body does and
// neither allocates.
func TestIndexHitCostIndependentOfSize(t *testing.T) {
	const base = "http://a.test/s.css"
	lookups := map[string]func([]byte) func(){
		"HTML": func(b []byte) func() { return func() { HTML(b) } },
		"CSSRefs": func(b []byte) func() {
			return func() { CSSRefs(b, base) }
		},
	}
	bodies := map[string]func(int) []byte{"HTML": htmlBody, "CSSRefs": cssBody}
	for name, lookup := range lookups {
		small, large := bodies[name](1<<10), bodies[name](1<<20)
		hitSmall, hitLarge := lookup(small), lookup(large)
		hitSmall()
		hitLarge()
		for _, hit := range []func(){hitSmall, hitLarge} {
			if n := testing.AllocsPerRun(100, hit); n != 0 {
				t.Errorf("%s hit allocates %.1f/op, want 0", name, n)
			}
		}
		if bodyindex.Check {
			continue // the debug build re-compares every hit's bytes
		}
		ns1k, ns1m := hitNanos(2000, hitSmall), hitNanos(2000, hitLarge)
		t.Logf("%s hit: %.0f ns at 1 KB, %.0f ns at 1 MB", name, ns1k, ns1m)
		if ns1m > 2*ns1k {
			t.Errorf("%s hit costs %.0f ns at 1 MB against %.0f ns at 1 KB: not independent of length", name, ns1m, ns1k)
		}
	}
}

func BenchmarkHTMLHit(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"1KB", 1 << 10}, {"1MB", 1 << 20}} {
		b.Run(size.name, func(b *testing.B) {
			body := htmlBody(size.n)
			HTML(body)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				HTML(body)
			}
		})
	}
}

// TestMemosDoNotPinBodies: memoising a body keeps its artifact, never the
// body itself; a body nobody else holds is collected.
func TestMemosDoNotPinBodies(t *testing.T) {
	memos := map[string]func([]byte){
		"HTML":         func(b []byte) { HTML(b) },
		"CSSRefs":      func(b []byte) { CSSRefs(b, "http://a.test/s.css") },
		"CompileBytes": func(b []byte) { minijs.CompileBytes(b) },
	}
	for name, memo := range memos {
		body := []byte("var pinned_probe = 1; /* " + name + " */")
		freed := weak.Make(&body[0])
		memo(body)
		memo(body) // an identity hit too
		body = nil
		deadline := time.Now().Add(5 * time.Second)
		for freed.Value() != nil {
			if time.Now().After(deadline) {
				t.Fatalf("%s keeps a memoised body reachable", name)
			}
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
	}
}

func TestResetEmptiesIndex(t *testing.T) {
	body, css := htmlBody(512), cssBody(512)
	HTML(body)
	CSSRefs(css, "http://a.test/s.css")
	artCache.mu.RLock()
	n := artCache.htmlIdx.Len() + artCache.refsIdx.Len()
	artCache.mu.RUnlock()
	if n == 0 {
		t.Fatal("lookups indexed nothing")
	}
	Reset()
	artCache.mu.RLock()
	n = artCache.htmlIdx.Len() + artCache.refsIdx.Len()
	_, hit := artCache.htmlIdx.Get(body)
	artCache.mu.RUnlock()
	if n != 0 || hit {
		t.Fatalf("Reset left %d indexed bodies", n)
	}
	runtime.KeepAlive(css)
}

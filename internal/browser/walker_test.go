package browser

import (
	"strings"
	"testing"
	"time"
)

// These tests pin the parser-blocking walk semantics — the mechanism that
// separates DIR from PARCEL in the reproduction (see Figure 6a's flat
// segments).

func TestSyncScriptBlocksLaterDiscovery(t *testing.T) {
	store := map[string]Result{
		mainURL: obj("text/html", `<html>
			<img src="/before.png">
			<script src="/blocker.js"></script>
			<img src="/after.png">
		</html>`),
		"http://www.site.com/before.png": obj("image/png", "b"),
		"http://www.site.com/blocker.js": obj("application/javascript", `var x = 1;`),
		"http://www.site.com/after.png":  obj("image/png", "a"),
	}
	sim, e, f := newEngine(t, store, 40*time.Millisecond, Options{})
	e.Load(mainURL)
	sim.Run()

	idx := map[string]int{}
	for i, u := range f.fetched {
		idx[u] = i
	}
	if idx["http://www.site.com/before.png"] > idx["http://www.site.com/blocker.js"] {
		t.Fatal("pre-script image not requested before the script")
	}
	if idx["http://www.site.com/after.png"] < idx["http://www.site.com/blocker.js"] {
		t.Fatal("post-script image requested before the blocking script")
	}
	// The after-image request must wait for the script's round trip.
	if _, ok := e.CompleteAt(); !ok {
		t.Fatal("incomplete")
	}
}

func TestChainedScriptsSerialize(t *testing.T) {
	// Three head scripts: each costs a fetch round trip serially, so onload
	// is at least 3 fetch-delays even though bandwidth is unconstrained.
	const delay = 50 * time.Millisecond
	store := map[string]Result{
		mainURL: obj("text/html", `<html><head>
			<script src="/s1.js"></script>
			<script src="/s2.js"></script>
			<script src="/s3.js"></script>
		</head></html>`),
		"http://www.site.com/s1.js": obj("application/javascript", `var a = 1;`),
		"http://www.site.com/s2.js": obj("application/javascript", `var b = 2;`),
		"http://www.site.com/s3.js": obj("application/javascript", `var c = 3;`),
	}
	sim, e, _ := newEngine(t, store, delay, Options{})
	e.Load(mainURL)
	sim.Run()
	ol, ok := e.OnloadAt()
	if !ok {
		t.Fatal("no onload")
	}
	if ol < 4*delay { // main doc + 3 serialized scripts
		t.Fatalf("onload at %v — scripts did not serialize (want >= %v)", ol, 4*delay)
	}
}

func TestAsyncScriptDoesNotSuspendWalk(t *testing.T) {
	const delay = 50 * time.Millisecond
	store := map[string]Result{
		mainURL: obj("text/html", `<html>
			<script src="/a1.js" async></script>
			<script src="/a2.js" async></script>
			<script src="/a3.js" async></script>
		</html>`),
		"http://www.site.com/a1.js": obj("application/javascript", `var a = 1;`),
		"http://www.site.com/a2.js": obj("application/javascript", `var b = 2;`),
		"http://www.site.com/a3.js": obj("application/javascript", `var c = 3;`),
	}
	sim, e, _ := newEngine(t, store, delay, Options{})
	e.Load(mainURL)
	sim.Run()
	co, ok := e.CompleteAt()
	if !ok {
		t.Fatal("no complete")
	}
	// Async scripts fetch in parallel: done in ~2 delays, not 4.
	if co > 3*delay {
		t.Fatalf("complete at %v — async scripts serialized", co)
	}
}

func TestInlineScriptBlocksWalk(t *testing.T) {
	store := map[string]Result{
		mainURL: obj("text/html", `<html>
			<script>var i = 0; while (i < 20000) { i = i + 1; }</script>
			<img src="/late.png">
		</html>`),
		"http://www.site.com/late.png": obj("image/png", "l"),
	}
	sim, e, f := newEngine(t, store, time.Millisecond, Options{})
	e.Load(mainURL)
	sim.Run()
	// The image fetch is issued only after the heavy inline script executes.
	var imgIssuedAt time.Duration
	for _, u := range f.fetched {
		if strings.HasSuffix(u, "late.png") {
			imgIssuedAt = 1 // found
		}
	}
	if imgIssuedAt == 0 {
		t.Fatal("late image never fetched")
	}
	ol, _ := e.OnloadAt()
	// 20k iterations × ~4 ops × 8 µs ≈ 640 ms of JS before the image.
	if ol < 400*time.Millisecond {
		t.Fatalf("onload %v — inline script cost not serialized", ol)
	}
}

func TestOnloadNetExcludesTrailingCPU(t *testing.T) {
	store := map[string]Result{
		mainURL: obj("text/html", `<html>
			<img src="/i.png">
			<script>var i = 0; while (i < 30000) { i = i + 1; }</script>
		</html>`),
		"http://www.site.com/i.png": obj("image/png", strings.Repeat("x", 100)),
	}
	sim, e, _ := newEngine(t, store, 5*time.Millisecond, Options{})
	e.Load(mainURL)
	sim.Run()
	olNet, ok1 := e.OnloadNetAt()
	olFull, ok2 := e.OnloadAt()
	if !ok1 || !ok2 {
		t.Fatal("missing onload")
	}
	if olNet >= olFull {
		t.Fatalf("network OLT %v >= full OLT %v — trailing JS not excluded", olNet, olFull)
	}
}

func TestDupScriptAcrossWalkAndFetch(t *testing.T) {
	// The same script referenced twice: the second reference must reuse the
	// first fetch (waiters path), not hang the walk.
	store := map[string]Result{
		mainURL: obj("text/html", `<html>
			<script src="/shared.js"></script>
			<script src="/shared.js"></script>
			<img src="/done.png">
		</html>`),
		"http://www.site.com/shared.js": obj("application/javascript", `var s = 1;`),
		"http://www.site.com/done.png":  obj("image/png", "d"),
	}
	sim, e, f := newEngine(t, store, 10*time.Millisecond, Options{})
	e.Load(mainURL)
	sim.Run()
	if _, ok := e.CompleteAt(); !ok {
		t.Fatal("walk hung on duplicate script")
	}
	count := 0
	for _, u := range f.fetched {
		if strings.HasSuffix(u, "shared.js") {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("shared.js fetched %d times", count)
	}
	if !arrived(e, "http://www.site.com/done.png") {
		t.Fatal("content after duplicate script lost")
	}
}

func TestFireEventNoHandlers(t *testing.T) {
	sim, e, _ := newEngine(t, map[string]Result{mainURL: obj("text/html", `<html></html>`)}, time.Millisecond, Options{})
	e.Load(mainURL)
	sim.Run()
	if n := e.FireEvent("click", "nothing"); n != 0 {
		t.Fatalf("handlers = %d", n)
	}
	sim.Run()
}

func TestUnknownContentTypeTreatedAsAsset(t *testing.T) {
	store := map[string]Result{
		mainURL:                        obj("text/html", `<html><img src="/blob.bin"></html>`),
		"http://www.site.com/blob.bin": obj("application/octet-stream", "???"),
	}
	sim, e, _ := newEngine(t, store, time.Millisecond, Options{})
	e.Load(mainURL)
	sim.Run()
	if _, ok := e.CompleteAt(); !ok {
		t.Fatal("unknown content type stalled page")
	}
}

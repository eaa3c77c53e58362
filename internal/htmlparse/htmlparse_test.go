package htmlparse

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *Node {
	t.Helper()
	root, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func TestParseSimpleTree(t *testing.T) {
	root := mustParse(t, `<html><body><div id="main"><p>hello</p></div></body></html>`)
	divs := Find(root, "div")
	if len(divs) != 1 || divs[0].Attr("id") != "main" {
		t.Fatalf("div = %+v", divs)
	}
	ps := Find(root, "p")
	if len(ps) != 1 || len(ps[0].Children) != 1 || ps[0].Children[0].Text != "hello" {
		t.Fatalf("p = %+v", ps)
	}
}

func TestVoidElementsDoNotNest(t *testing.T) {
	root := mustParse(t, `<div><img src="a.png"><img src="b.png"></div>`)
	imgs := Find(root, "img")
	if len(imgs) != 2 {
		t.Fatalf("imgs = %d, want 2", len(imgs))
	}
	if len(imgs[0].Children) != 0 {
		t.Fatal("void element has children")
	}
}

func TestSelfClosingTag(t *testing.T) {
	root := mustParse(t, `<div><br/><span>x</span></div>`)
	if len(Find(root, "span")) != 1 {
		t.Fatal("self-closing br swallowed span")
	}
}

func TestAttributes(t *testing.T) {
	root := mustParse(t, `<a href="http://x.com/p" class='c1 c2' data-x=bare checked>link</a>`)
	a := Find(root, "a")[0]
	if a.Attr("href") != "http://x.com/p" {
		t.Errorf("href = %q", a.Attr("href"))
	}
	if a.Attr("class") != "c1 c2" {
		t.Errorf("class = %q", a.Attr("class"))
	}
	if a.Attr("data-x") != "bare" {
		t.Errorf("data-x = %q", a.Attr("data-x"))
	}
	if !a.HasAttr("checked") {
		t.Error("bare attribute missing")
	}
}

func TestCommentsAndDoctypeSkipped(t *testing.T) {
	root := mustParse(t, `<!DOCTYPE html><!-- a comment with <tags> --><p>x</p>`)
	if len(Find(root, "p")) != 1 {
		t.Fatal("p not found")
	}
	if len(root.Children) != 1 {
		t.Fatalf("root children = %d, want 1", len(root.Children))
	}
}

func TestScriptRawText(t *testing.T) {
	src := `<script>if (a < b) { fetch("http://x.com/y.js"); }</script><p>after</p>`
	root := mustParse(t, src)
	scripts := InlineScripts(root)
	if len(scripts) != 1 {
		t.Fatalf("scripts = %d, want 1", len(scripts))
	}
	if !strings.Contains(scripts[0], `a < b`) {
		t.Fatalf("script body mangled: %q", scripts[0])
	}
	if len(Find(root, "p")) != 1 {
		t.Fatal("content after script lost")
	}
}

func TestScriptWithSrcIsNotInline(t *testing.T) {
	root := mustParse(t, `<script src="http://x.com/a.js"></script>`)
	if len(InlineScripts(root)) != 0 {
		t.Fatal("external script treated as inline")
	}
}

func TestInlineStyles(t *testing.T) {
	root := mustParse(t, `<style>body { background: url(bg.png); }</style>`)
	styles := InlineStyles(root)
	if len(styles) != 1 || !strings.Contains(styles[0], "bg.png") {
		t.Fatalf("styles = %v", styles)
	}
}

func TestStrayClosingTagIgnored(t *testing.T) {
	root := mustParse(t, `<div></span><p>x</p></div>`)
	if len(Find(root, "p")) != 1 {
		t.Fatal("stray closing tag broke parse")
	}
}

func TestUnclosedElementsClosedAtEOF(t *testing.T) {
	root := mustParse(t, `<div><ul><li>one<li>two`)
	if len(Find(root, "li")) != 2 {
		t.Fatalf("lis = %d, want 2", len(Find(root, "li")))
	}
}

func TestBareLessThanIsText(t *testing.T) {
	root := mustParse(t, `<p>a < b</p>`)
	if len(Find(root, "p")) != 1 {
		t.Fatal("bare < broke parse")
	}
}

func TestResourcesExtraction(t *testing.T) {
	src := `
<html><head>
  <link rel="stylesheet" href="/css/main.css">
  <link rel="icon" href="/favicon.ico">
  <script src="app.js"></script>
  <script src="http://cdn.x.com/lib.js" async></script>
</head><body>
  <img src="//img.x.com/1.png">
  <iframe src="http://ads.x.com/frame"></iframe>
  <video src="/v.mp4"></video>
  <input type="image" src="btn.png">
  <img src="#skip">
  <img src="">
</body></html>`
	root := mustParse(t, src)
	res := Resources(root, "http://www.x.com/index.html")
	byURL := map[string]Resource{}
	for _, r := range res {
		byURL[r.URL] = r
	}
	if len(res) != 7 {
		t.Fatalf("resources = %d (%+v), want 7", len(res), res)
	}
	if r := byURL["http://www.x.com/btn.png"]; r.Kind != ResImage {
		t.Errorf("input type=image wrong: %+v", r)
	}
	if r := byURL["http://www.x.com/css/main.css"]; r.Kind != ResStylesheet {
		t.Errorf("css missing/wrong: %+v", byURL)
	}
	if r := byURL["http://www.x.com/app.js"]; r.Kind != ResScript || r.Async {
		t.Errorf("sync script wrong: %+v", r)
	}
	if r := byURL["http://cdn.x.com/lib.js"]; r.Kind != ResScript || !r.Async {
		t.Errorf("async script wrong: %+v", r)
	}
	if r := byURL["http://img.x.com/1.png"]; r.Kind != ResImage {
		t.Errorf("protocol-relative img wrong: %+v", r)
	}
	if r := byURL["http://ads.x.com/frame"]; r.Kind != ResIframe {
		t.Errorf("iframe wrong: %+v", r)
	}
	if r := byURL["http://www.x.com/v.mp4"]; r.Kind != ResMedia {
		t.Errorf("video wrong: %+v", r)
	}
}

func TestDeferScriptIsAsync(t *testing.T) {
	root := mustParse(t, `<script src="d.js" defer></script>`)
	res := Resources(root, "http://x.com/")
	if len(res) != 1 || !res[0].Async {
		t.Fatalf("defer script: %+v", res)
	}
}

func TestResolveURL(t *testing.T) {
	cases := []struct{ base, ref, want string }{
		{"http://a.com/x/y.html", "http://b.com/z", "http://b.com/z"},
		{"http://a.com/x/y.html", "/abs.png", "http://a.com/abs.png"},
		{"http://a.com/x/y.html", "rel.png", "http://a.com/x/rel.png"},
		{"http://a.com/x/y.html", "//cdn.com/c.js", "http://cdn.com/c.js"},
		{"http://a.com", "rel.png", "http://a.com/rel.png"},
		{"http://a.com/x/y.html", "#frag", ""},
		{"http://a.com/x/y.html", "", ""},
		{"http://a.com/x/y.html", "https://secure.com/a", "https://secure.com/a"},
		{"http://a.com/x/y.html", "ftp://files.com/a", ""},
		{"http://a.com/x/y.html", "  spaced.png ", "http://a.com/x/spaced.png"},
	}
	for _, c := range cases {
		if got := ResolveURL(c.base, c.ref); got != c.want {
			t.Errorf("ResolveURL(%q, %q) = %q, want %q", c.base, c.ref, got, c.want)
		}
	}
}

func TestWalkOrder(t *testing.T) {
	root := mustParse(t, `<a></a><b><c></c></b>`)
	var tags []string
	Walk(root, func(n *Node) {
		if n.Tag != "" {
			tags = append(tags, n.Tag)
		}
	})
	want := []string{"#document", "a", "b", "c"}
	if strings.Join(tags, ",") != strings.Join(want, ",") {
		t.Fatalf("walk order = %v", tags)
	}
}

func TestLargePageParses(t *testing.T) {
	var b strings.Builder
	b.WriteString("<html><body>")
	for i := 0; i < 2000; i++ {
		b.WriteString(`<div class="row"><img src="/img.png"><p>some text content here</p></div>`)
	}
	b.WriteString("</body></html>")
	root := mustParse(t, b.String())
	if got := len(Find(root, "img")); got != 2000 {
		t.Fatalf("imgs = %d", got)
	}
}

func BenchmarkParse100KB(b *testing.B) {
	var sb strings.Builder
	for sb.Len() < 100_000 {
		sb.WriteString(`<div class="c"><a href="/x">link text</a><img src="/i.png"><p>body copy</p></div>`)
	}
	src := []byte(sb.String())
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

package replay

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/parcel-go/parcel/internal/httpsim"
	"github.com/parcel-go/parcel/internal/webgen"
)

func TestRecordAndGet(t *testing.T) {
	a := NewArchive()
	a.Record(httpsim.Object{URL: "http://x.com/a", ContentType: "text/plain", Body: []byte("hi")})
	o, ok := a.Get("http://x.com/a")
	if !ok || string(o.Body) != "hi" {
		t.Fatalf("Get = %+v, %v", o, ok)
	}
	if _, ok := a.Get("http://x.com/missing"); ok {
		t.Fatal("found missing object")
	}
	if a.Misses != 1 {
		t.Fatalf("Misses = %d", a.Misses)
	}
}

func TestRecordOverwrites(t *testing.T) {
	a := NewArchive()
	a.Record(httpsim.Object{URL: "http://x.com/a", Body: []byte("v1")})
	a.Record(httpsim.Object{URL: "http://x.com/a", Body: []byte("v2")})
	if a.Len() != 1 {
		t.Fatalf("Len = %d", a.Len())
	}
	o, _ := a.Get("http://x.com/a")
	if string(o.Body) != "v2" {
		t.Fatalf("body = %q", o.Body)
	}
}

func TestFromPages(t *testing.T) {
	pages := webgen.Generate(webgen.Spec{Seed: 5, NumPages: 2})
	a := FromPages(pages...)
	want := pages[0].ObjectCount + pages[1].ObjectCount
	if a.Len() != want {
		t.Fatalf("Len = %d, want %d", a.Len(), want)
	}
	if a.TotalBytes() != pages[0].TotalBytes+pages[1].TotalBytes {
		t.Fatal("TotalBytes mismatch")
	}
	if _, ok := a.Get(pages[0].MainURL); !ok {
		t.Fatal("main URL missing")
	}
}

func TestRewriteURL(t *testing.T) {
	cases := []struct{ in, want string }{
		{"http://a.com/pixel?r=99183", "http://a.com/pixel?r=4"},
		{"http://a.com/x?id=5&ts=1700000000", "http://a.com/x?id=5&ts=4"},
		{"http://a.com/x?cb=1&r=2", "http://a.com/x?cb=4&r=4"},
		{"http://a.com/plain", "http://a.com/plain"},
		{"http://a.com/x?name=r5", "http://a.com/x?name=r5"}, // value not numeric-only param
	}
	for _, c := range cases {
		if got := RewriteURL(c.in); got != c.want {
			t.Errorf("RewriteURL(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestRewriteURLWebgen holds RewriteURL to the rewrite it replaced (one
// fmt.Sprintf replacement per call, the regexp run on every URL) over every
// URL of webgen seeds 1-3, as generated and with cache-buster parameters
// appended so the regexp path is covered as well as the query-less one.
func TestRewriteURLWebgen(t *testing.T) {
	old := func(url string) string {
		return randParam.ReplaceAllString(url, fmt.Sprintf("${1}%d", webgen.FixedRandValue))
	}
	n, rewritten := 0, 0
	for seed := int64(1); seed <= 3; seed++ {
		for _, p := range webgen.Generate(webgen.Spec{Seed: seed}) {
			urls := []string{p.MainURL}
			for _, o := range p.Objects {
				urls = append(urls, o.URL)
			}
			for _, u := range urls {
				for _, v := range []string{u, u + "?r=91823", u + "?id=5&ts=1700000000", u + "&cb=7", u + "?name=r5"} {
					want := old(v)
					if got := RewriteURL(v); got != want {
						t.Fatalf("RewriteURL(%q) = %q, want %q", v, got, want)
					}
					n++
					if want != v {
						rewritten++
					}
				}
			}
		}
	}
	if n < 1000 || rewritten == 0 {
		t.Fatalf("checked %d URLs, %d rewritten: the table does not cover both paths", n, rewritten)
	}
}

func TestRewritingStore(t *testing.T) {
	a := NewArchive()
	a.Record(httpsim.Object{URL: "http://a.com/track?r=4", Body: []byte("pix")})
	rw := Rewriting{Store: a}
	if _, ok := rw.Get("http://a.com/track?r=192837"); !ok {
		t.Fatal("rewritten lookup failed")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "archive.json")
	pages := webgen.Generate(webgen.Spec{Seed: 9, NumPages: 1})
	a := FromPages(pages...)
	if err := a.Save(path); err != nil {
		t.Fatal(err)
	}
	b, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != a.Len() {
		t.Fatalf("loaded %d objects, want %d", b.Len(), a.Len())
	}
	for _, u := range a.URLs() {
		oa, _ := a.Get(u)
		ob, ok := b.Get(u)
		if !ok || !bytes.Equal(oa.Body, ob.Body) || oa.ContentType != ob.ContentType {
			t.Fatalf("object %s did not round-trip", u)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("loaded garbage")
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("loaded missing file")
	}
}

// TestArchivePinsValidators: an archive serves each object's validator
// without hashing its body per response. Objects recorded from generated
// pages share the pages' memo slots (one hash per body process-wide), an
// object recorded without a validator gets one derived on demand and
// memoised, and a recorded validator is served as captured.
func TestArchivePinsValidators(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		pages := webgen.Generate(webgen.Spec{Seed: seed, NumPages: 6})
		before := httpsim.ValidatorHashes()
		a := FromPages(pages...)
		if n := httpsim.ValidatorHashes() - before; n != 0 {
			t.Fatalf("seed %d: FromPages hashed %d bodies, want 0", seed, n)
		}
		for _, u := range a.URLs() {
			o, _ := a.Get(u)
			if want := httpsim.ContentValidator(o.Body); o.ETag() != want {
				t.Fatalf("seed %d %s: archive ETag %q, want %q", seed, u, o.ETag(), want)
			}
		}
		// Everything is memoised now, in the archive and in the pages.
		before = httpsim.ValidatorHashes()
		for _, u := range a.URLs() {
			o, _ := a.Get(u)
			o.ETag()
		}
		if n := httpsim.ValidatorHashes() - before; n != 0 {
			t.Fatalf("seed %d: a second pass over the archive hashed %d bodies", seed, n)
		}
	}

	a := NewArchive()
	a.Record(httpsim.Object{URL: "http://x.com/bare", Body: []byte("no validator recorded")})
	a.Record(httpsim.Object{URL: "http://x.com/etag", Body: []byte("captured"), Validator: "W/origin-etag"})
	before := httpsim.ValidatorHashes()
	for i := 0; i < 3; i++ {
		bare, _ := a.Get("http://x.com/bare")
		if bare.ETag() == "" {
			t.Fatal("object recorded without a validator serves none")
		}
		tagged, _ := a.Get("http://x.com/etag")
		if tagged.ETag() != "W/origin-etag" {
			t.Fatalf("recorded validator served as %q", tagged.ETag())
		}
	}
	if n := httpsim.ValidatorHashes() - before; n != 1 {
		t.Fatalf("%d hashes for one unvalidated object fetched three times, want 1", n)
	}
	if bare, _ := a.Get("http://x.com/bare"); bare.ETag() != httpsim.ContentValidator(bare.Body) {
		t.Fatalf("derived validator %q is not the content hash", bare.ETag())
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"github.com/parcel-go/parcel/internal/core"
	"github.com/parcel-go/parcel/internal/dirbrowser"
	"github.com/parcel-go/parcel/internal/htmlparse"
	"github.com/parcel-go/parcel/internal/metrics"
	"github.com/parcel-go/parcel/internal/minijs"
	"github.com/parcel-go/parcel/internal/parcelnet"
	"github.com/parcel-go/parcel/internal/scenario"
	"github.com/parcel-go/parcel/internal/webgen"
)

// newStubInterp builds an interpreter with no-op versions of the browser
// builtins generated scripts call, so a script body can be benchmarked in
// isolation from the engine.
func newStubInterp() *minijs.Interp {
	in := minijs.New()
	noop := func([]minijs.Value) (minijs.Value, error) { return minijs.Null(), nil }
	for _, name := range []string{"fetch", "fetchAsync", "setTimeout", "onEvent", "log"} {
		in.BindNative(name, noop)
	}
	in.BindNative("rand", func([]minijs.Value) (minijs.Value, error) {
		return minijs.Number(webgen.FixedRandValue), nil
	})
	in.Bind("document", minijs.Namespace(map[string]minijs.Value{
		"write":  minijs.NativeValue(noop),
		"append": minijs.NativeValue(noop),
		"remove": minijs.NativeValue(noop),
		"show":   minijs.NativeValue(noop),
		"hide":   minijs.NativeValue(noop),
	}))
	return in
}

// hotpathBaselineAllocs is the PARCEL page-load allocation count measured
// before the pooling/arena work (simnet closures per packet, map-backed
// attribute storage, slice-doubling trace recorder). It is recorded so the
// report states the reduction against a fixed reference, not against
// whatever the previous run happened to be.
const hotpathBaselineAllocs = 29634

// hotpathTargetAllocs is the regression budget: a PARCEL page load must stay
// at or under this many allocations. Lowered from 10000 after the pooled
// httpsim pending queue, the interval/energy scratch reuse in radio, and the
// webgen page cache closed the residual hot-path churn (measured ~2.1k).
const hotpathTargetAllocs = 2500

// crawlTargetAllocs is the budget for one warm discovery crawl of the
// benchmark page on the TCP proxy (CrawlWarm): cached trees and refs, every
// cacheable script replayed from the exec-outcome memo. What remains is a
// closure per requested URL, the resource walk of the main document, and
// the timer-arming inline script, which always executes (measured 179).
const crawlTargetAllocs = 250

// hotpathCase is one measured benchmark in the hot-path report.
type hotpathCase struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// hotpathReport is the JSON shape the benchhotpath target writes.
type hotpathReport struct {
	BaselineAllocsPerOp int64         `json:"baseline_allocs_per_op"`
	TargetAllocsPerOp   int64         `json:"target_allocs_per_op"`
	ReductionPercent    float64       `json:"reduction_percent"`
	WithinTarget        bool          `json:"within_target"`
	Cases               []hotpathCase `json:"cases"`
	// Minijs tracks the interpreter's own trajectory (compile-cache hit
	// path and steady-state execution), like simnet/htmlparse/trace.
	Minijs []hotpathCase `json:"minijs"`
	// Wire is the parcelmux frame path. The encode/decode data path and the
	// HPACK-lite meta encoder are gated at zero allocs/op (WireZeroAlloc);
	// meta decode materializes a URL string per object so it is measured but
	// not gated.
	Wire          []hotpathCase `json:"wire"`
	WireZeroAlloc bool          `json:"wire_zero_alloc"`
	// Crawl is one TCP-proxy session's discovery crawl over an in-memory
	// fetch function, caches and exec-outcome memo warm.
	Crawl                  hotpathCase `json:"crawl"`
	CrawlTargetAllocsPerOp int64       `json:"crawl_target_allocs_per_op"`
	CrawlWithinTarget      bool        `json:"crawl_within_target"`
}

// benchHotpath measures the allocation profile of the simulator's hot paths
// — a full PARCEL page load, a full DIR page load, an HTML parse, and one
// warm discovery crawl on the TCP proxy — and writes the report to path. The
// PARCEL case is compared against the committed pre-optimization baseline and
// the regression budget, the crawl against its own; the target exits non-zero
// if a budget is blown, so CI can gate on it.
func benchHotpath(w io.Writer, path string) error {
	header(w, "benchhotpath: hot-path allocation profile")
	page := webgen.Generate(webgen.Spec{Seed: 77, NumPages: 4})[2]

	cases := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"PageLoadPARCEL", func(b *testing.B) {
			// Steady-state load on the batched engine — shared arenas, the
			// exec-outcome cache, and collector scratch amortized across
			// iterations, exactly what one page costs a sweep worker. One
			// warm load outside the timer fills the pools and caches, the
			// way a worker's first batch member does for the rest.
			res := scenario.NewResources()
			var col metrics.Collector
			load := func() {
				topo := scenario.BuildWith(page, scenario.DefaultParams(), res)
				core.StartProxy(topo, core.DefaultProxyConfig())
				client := core.NewClient(topo, core.DefaultClientConfig())
				client.Start()
				topo.Sim.Run()
				client.CollectWith(&col)
				topo.Release()
			}
			load()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				load()
			}
		}},
		{"PageLoadDIR", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				topo := scenario.Build(page, scenario.DefaultParams())
				dirbrowser.Run(topo, dirbrowser.Options{FixedRandom: true})
			}
		}},
		{"ParseHTML", func(b *testing.B) {
			var body []byte
			for _, obj := range page.Objects {
				if obj.ContentType == "text/html" {
					body = obj.Body
					break
				}
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := htmlparse.Parse(body); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}

	// Minijs cases benchmark the interpreter on a real generated script
	// body: steady-state execution on a reused interpreter (frames from the
	// free lists) and the program-cache hit path.
	var jsBody []byte
	for _, obj := range page.Objects {
		if strings.Contains(obj.ContentType, "javascript") {
			jsBody = obj.Body
			break
		}
	}
	minijsCases := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"MinijsExec", func(b *testing.B) {
			prog, err := minijs.CompileBytes(jsBody)
			if err != nil {
				b.Fatal(err)
			}
			in := newStubInterp()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in.ResetOps()
				if err := in.Run(prog); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"MinijsCompileCached", func(b *testing.B) {
			if _, err := minijs.CompileBytes(jsBody); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := minijs.CompileBytes(jsBody); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}

	// Wire cases benchmark the parcelmux frame path: steady-state data
	// encode (sender scratch reuse) and decode (assembler append into the
	// preallocated body), plus the HPACK-lite meta codec. The per-stream
	// setup (open frame, body buffer) amortizes across a whole stream cycle,
	// so anything above 0 allocs/op means the per-chunk path regressed.
	wireGated := map[string]bool{
		"MuxEncodeData": true,
		"MuxDecodeData": true,
		"MuxMetaEncode": true,
	}
	wireCases := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"MuxEncodeData", func(b *testing.B) {
			wb := parcelnet.NewWireBench(4<<20, 32<<10)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				wb.EncodeStep()
			}
		}},
		{"MuxDecodeData", func(b *testing.B) {
			wb := parcelnet.NewWireBench(4<<20, 32<<10)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := wb.DecodeStep(); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"MuxMetaEncode", func(b *testing.B) {
			var enc parcelnet.MetaEncoder
			// First call inserts the origin prefix; the timed loop measures
			// the indexed repeat-origin path a bundle's tail objects take.
			dst := enc.AppendMeta(nil, "https://bench.test/assets/app.css", "text/css", 200)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = enc.AppendMeta(dst[:0], "https://bench.test/assets/hero.png", "image/png", 200)
			}
		}},
		{"MuxMetaDecode", func(b *testing.B) {
			var enc parcelnet.MetaEncoder
			var dec parcelnet.MetaDecoder
			prime := enc.AppendMeta(nil, "https://bench.test/assets/app.css", "text/css", 200)
			if _, _, _, _, err := dec.ReadMeta(prime); err != nil {
				b.Fatal(err)
			}
			meta := enc.AppendMeta(nil, "https://bench.test/assets/hero.png", "image/png", 200)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, _, err := dec.ReadMeta(meta); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}

	crawlWarm := func(b *testing.B) {
		objects := make([]parcelnet.Object, len(page.Objects))
		for i, o := range page.Objects {
			objects[i] = parcelnet.Object{URL: o.URL, ContentType: o.ContentType, Body: o.Body}
		}
		cb := parcelnet.NewCrawlBench(page.MainURL, objects)
		if n := cb.Crawl(); n != page.ObjectCount {
			b.Fatalf("crawl requested %d of %d objects", n, page.ObjectCount)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cb.Crawl()
		}
	}

	rep := hotpathReport{
		BaselineAllocsPerOp:    hotpathBaselineAllocs,
		TargetAllocsPerOp:      hotpathTargetAllocs,
		WireZeroAlloc:          true,
		CrawlTargetAllocsPerOp: crawlTargetAllocs,
	}
	measure := func(name string, fn func(b *testing.B)) hotpathCase {
		r := testing.Benchmark(fn)
		hc := hotpathCase{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		fmt.Fprintf(w, "%-20s %10.0f ns/op %10d B/op %8d allocs/op\n",
			hc.Name, hc.NsPerOp, hc.BytesPerOp, hc.AllocsPerOp)
		return hc
	}
	for _, c := range cases {
		rep.Cases = append(rep.Cases, measure(c.name, c.fn))
	}
	for _, c := range minijsCases {
		rep.Minijs = append(rep.Minijs, measure(c.name, c.fn))
	}
	for _, c := range wireCases {
		hc := measure(c.name, c.fn)
		if wireGated[hc.Name] && hc.AllocsPerOp > 0 {
			rep.WireZeroAlloc = false
		}
		rep.Wire = append(rep.Wire, hc)
	}
	rep.Crawl = measure("CrawlWarm", crawlWarm)
	rep.CrawlWithinTarget = rep.Crawl.AllocsPerOp <= crawlTargetAllocs

	parcelAllocs := rep.Cases[0].AllocsPerOp
	rep.ReductionPercent = 100 * (1 - float64(parcelAllocs)/float64(hotpathBaselineAllocs))
	rep.WithinTarget = parcelAllocs <= hotpathTargetAllocs
	fmt.Fprintf(w, "PARCEL page load: %d allocs/op (baseline %d, -%.1f%%; budget %d)\n",
		parcelAllocs, rep.BaselineAllocsPerOp, rep.ReductionPercent, rep.TargetAllocsPerOp)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	if !rep.WithinTarget {
		return fmt.Errorf("hot-path regression: PARCEL page load %d allocs/op exceeds budget %d",
			parcelAllocs, hotpathTargetAllocs)
	}
	if !rep.WireZeroAlloc {
		return fmt.Errorf("hot-path regression: parcelmux encode/decode no longer alloc-free (see wire cases)")
	}
	if !rep.CrawlWithinTarget {
		return fmt.Errorf("hot-path regression: warm discovery crawl %d allocs/op exceeds budget %d",
			rep.Crawl.AllocsPerOp, crawlTargetAllocs)
	}
	return nil
}

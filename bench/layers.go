package main

import (
	"strings"
	"time"

	"github.com/parcel-go/parcel/internal/browser"
	"github.com/parcel-go/parcel/internal/core"
	"github.com/parcel-go/parcel/internal/cssparse"
	"github.com/parcel-go/parcel/internal/dirbrowser"
	"github.com/parcel-go/parcel/internal/eventsim"
	"github.com/parcel-go/parcel/internal/experiments"
	"github.com/parcel-go/parcel/internal/htmlparse"
	"github.com/parcel-go/parcel/internal/httpsim"
	"github.com/parcel-go/parcel/internal/metrics"
	"github.com/parcel-go/parcel/internal/mhtml"
	"github.com/parcel-go/parcel/internal/minijs"
	"github.com/parcel-go/parcel/internal/objcache"
	"github.com/parcel-go/parcel/internal/parcelnet"
	"github.com/parcel-go/parcel/internal/radio"
	"github.com/parcel-go/parcel/internal/replay"
	"github.com/parcel-go/parcel/internal/scenario"
	"github.com/parcel-go/parcel/internal/sched"
	"github.com/parcel-go/parcel/internal/simnet"
	"github.com/parcel-go/parcel/internal/webgen"
)

// prober times calls into one layer at a time, from outside, on the
// workload's own pages and objects. Every timed call is a span under one
// "probe" root, so the flushed trace shows where the probe pass itself went.
type prober struct {
	tr   *tracer
	root int
	out  map[string]float64
}

// timed runs fn inside a span and returns how long it took and how many
// heap objects it allocated. Probes run after the workload's last load, with
// its servers idle, so the process-wide malloc count is fn's own.
func (p *prober) timed(name string, load int, fn func()) (time.Duration, uint64) {
	before := memNow()
	id := p.tr.begin(name, p.root, int64(load))
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	p.tr.end(id)
	return d, memNow().Mallocs - before.Mallocs
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// probeLayers measures each layer in isolation over pages and returns the
// per-layer metrics by their declared names. seed only keys the webgen probe
// (a spec the memo has not seen).
func probeLayers(pages []webgen.Page, seed int64, tr *tracer) map[string]float64 {
	p := &prober{tr: tr, out: map[string]float64{}}
	p.root = tr.begin("probe", -1, -1)
	defer tr.end(p.root)

	d, _ := p.timed("webgen.generate", -1, func() {
		webgen.Generate(webgen.Spec{Seed: seed + 7_000_003, NumPages: len(pages)})
	})
	p.out["webgen.generate_ms"] = ms(d)

	p.parsers(pages)
	p.engine(pages)
	p.pageLoads(pages)
	p.simCore(pages[0])
	p.parallelEfficiency(pages, seed)
	p.cache(pages)
	p.originAndStore(pages)
	p.bundles(pages)
	p.wire()
	return p.out
}

// stubInterp is an interpreter with no-op browser builtins, so a script body
// runs in isolation from any engine (as cmd/parcel-bench's hot-path bench
// does).
func stubInterp() *minijs.Interp {
	in := minijs.New()
	noop := func([]minijs.Value) (minijs.Value, error) { return minijs.Null(), nil }
	for _, name := range []string{"fetch", "fetchAsync", "setTimeout", "onEvent", "log"} {
		in.BindNative(name, noop)
	}
	in.BindNative("rand", func([]minijs.Value) (minijs.Value, error) {
		return minijs.Number(webgen.FixedRandValue), nil
	})
	dom := minijs.NativeValue(noop)
	in.Bind("document", minijs.Namespace(map[string]minijs.Value{
		"write": dom, "append": dom, "remove": dom, "show": dom, "hide": dom,
	}))
	return in
}

// parsers runs htmlparse, cssparse and minijs over every HTML, CSS and JS
// object of each page — the work the proxy's per-session crawl and the
// browser engine both do.
func (p *prober) parsers(pages []webgen.Page) {
	var html, css, compile, run time.Duration
	var htmlAllocs uint64
	var ops int
	in := stubInterp()
	for pass := 0; pass < 2; pass++ { // pass 0 warms the compile memo, untimed
		html, css, compile, run, htmlAllocs, ops = 0, 0, 0, 0, 0, 0
		for pi, page := range pages {
			var htmls, csss, jss []httpsim.Object
			for _, obj := range page.Objects {
				switch {
				case strings.Contains(obj.ContentType, "html"):
					htmls = append(htmls, obj)
				case strings.Contains(obj.ContentType, "css"):
					csss = append(csss, obj)
				case strings.Contains(obj.ContentType, "javascript"):
					jss = append(jss, obj)
				}
			}
			d, a := p.timed("htmlparse.parse", pi, func() {
				for _, obj := range htmls {
					if root, err := htmlparse.Parse(obj.Body); err == nil {
						htmlparse.Resources(root, obj.URL)
					}
				}
			})
			html, htmlAllocs = html+d, htmlAllocs+a
			d, _ = p.timed("cssparse.refs", pi, func() {
				for _, obj := range csss {
					cssparse.Refs(string(obj.Body), obj.URL)
				}
			})
			css += d
			progs := make([]*minijs.Program, 0, len(jss))
			d, _ = p.timed("minijs.compile", pi, func() {
				for _, obj := range jss {
					if prog, err := minijs.Compile(string(obj.Body)); err == nil {
						progs = append(progs, prog)
					}
				}
			})
			compile += d
			d, _ = p.timed("minijs.run", pi, func() {
				for _, prog := range progs {
					in.ResetOps()
					// Page scripts may fail against stub builtins; the
					// engine tolerates script errors the same way.
					_ = in.Run(prog)
					ops += in.Ops()
				}
			})
			run += d
		}
	}
	n := len(pages)
	p.out["htmlparse.us_per_page"] = per(us(html), n)
	p.out["htmlparse.allocs_per_page"] = per(float64(htmlAllocs), n)
	p.out["cssparse.us_per_page"] = per(us(css), n)
	p.out["minijs.compile_us_per_page"] = per(us(compile), n)
	p.out["minijs.run_us_per_page"] = per(us(run), n)
	p.out["minijs.ops_per_page"] = per(float64(ops), n)
}

// memFetcher answers the engine from memory with zero latency: what is left
// is the engine's own fetch → parse → execute loop.
type memFetcher struct {
	sim   *eventsim.Simulator
	store httpsim.Store
}

func (f memFetcher) Fetch(url string, cb func(browser.Result)) {
	f.sim.Schedule(0, func() {
		obj, ok := f.store.Get(url)
		res := browser.Result{URL: url, Status: 404, At: f.sim.Now()}
		if ok {
			res.Status, res.ContentType, res.Body = 200, obj.ContentType, obj.Body
		}
		cb(res)
	})
}

func (p *prober) engine(pages []webgen.Page) {
	var total time.Duration
	var allocs uint64
	for pass := 0; pass < 2; pass++ { // pass 0 fills the artifact and exec-outcome caches, untimed
		total, allocs = 0, 0
		for pi, page := range pages {
			d, a := p.timed("browser.engine", pi, func() {
				sim := eventsim.New(1)
				f := memFetcher{sim: sim, store: replay.Rewriting{Store: page.SharedStore()}}
				browser.New(sim, f, browser.Options{CPU: browser.ProxyCPU(), FixedRandom: true, ExecCache: true}).Load(page.MainURL)
				sim.Run()
			})
			total, allocs = total+d, allocs+a
		}
	}
	p.out["browser.engine_us_per_page"] = per(us(total), len(pages))
	p.out["browser.allocs_per_page"] = per(float64(allocs), len(pages))
}

// pageLoads runs steady-state single loads per scheme on shared
// scenario.Resources — what one page costs a sweep worker — split into
// topology build, the PARCEL load, the DIR load and the radio model.
func (p *prober) pageLoads(pages []webgen.Page) {
	res := scenario.NewResources()
	var col metrics.Collector
	params := scenario.DefaultParams()
	type trail struct {
		acts    []radio.Activity
		horizon time.Duration
	}
	var build, parcel, dir time.Duration
	var parcelAllocs, dirAllocs, fired uint64
	var trails []trail
	for pass := 0; pass < 2; pass++ { // pass 0 fills the arenas, untimed
		build, parcel, dir, parcelAllocs, dirAllocs, fired = 0, 0, 0, 0, 0, 0
		trails = trails[:0]
		for pi, page := range pages {
			var topo *scenario.Topology
			d, _ := p.timed("scenario.build", pi, func() { topo = scenario.BuildWith(page, params, res) })
			build += d
			d, a := p.timed("core.load", pi, func() {
				core.StartProxy(topo, core.DefaultProxyConfig())
				client := core.NewClient(topo, core.DefaultClientConfig())
				client.Start()
				topo.Sim.Run()
				run := client.CollectWith(&col)
				fired += topo.Sim.Fired()
				trails = append(trails, trail{acts: topo.ClientTrace.Activities(), horizon: run.TLT})
				topo.Release()
			})
			parcel, parcelAllocs = parcel+d, parcelAllocs+a

			topo = scenario.BuildWith(page, params, res)
			d, a = p.timed("dirbrowser.load", pi, func() {
				b := dirbrowser.New(topo, dirbrowser.Options{FixedRandom: true})
				b.Engine.Load(topo.Page.MainURL)
				topo.Sim.Run()
				b.CollectWith(&col)
				topo.Release()
			})
			dir, dirAllocs = dir+d, dirAllocs+a
		}
	}
	n := len(pages)
	p.out["scenario.build_us_per_page"] = per(us(build), n)
	p.out["core.ms_per_load"] = per(ms(parcel), n)
	p.out["core.allocs_per_load"] = per(float64(parcelAllocs), n)
	p.out["dirbrowser.ms_per_load"] = per(ms(dir), n)
	p.out["dirbrowser.allocs_per_load"] = per(float64(dirAllocs), n)
	p.out["eventsim.events_per_load"] = per(float64(fired), n)

	d, _ := p.timed("radio.simulate", -1, func() {
		for _, t := range trails {
			radio.Simulate(t.acts, radio.DefaultLTE(), t.horizon)
		}
	})
	p.out["radio.us_per_load"] = per(us(d), n)
}

// simCore times the two engines under every simulated load: the event queue
// and the packet-level network on the default LTE path.
func (p *prober) simCore(page webgen.Page) {
	const events = 200_000
	d, _ := p.timed("eventsim.run", -1, func() {
		sim := eventsim.New(1)
		for i := 0; i < events; i++ {
			sim.Schedule(time.Duration(i)*time.Microsecond, func() {})
		}
		sim.Run()
	})
	p.out["eventsim.ns_per_event"] = float64(d) / events

	const sends, size = 20, 1 << 20
	d, _ = p.timed("simnet.send", -1, func() {
		topo := scenario.Build(page, scenario.DefaultParams())
		topo.Client.Dial(topo.Proxy, func(c *simnet.Conn) {
			for i := 0; i < sends; i++ {
				c.Send(topo.Proxy, size, nil, "probe", nil)
			}
		})
		topo.Sim.Run()
	})
	segments := sends * ((size + simnet.MSS - 1) / simnet.MSS)
	p.out["simnet.ns_per_segment"] = float64(d) / float64(segments)
}

// parallelEfficiency is sweep throughput at Parallelism=K over K times the
// throughput at 1: what the runner's fan-out keeps of the cores it is given.
func (p *prober) parallelEfficiency(pages []webgen.Page, seed int64) {
	k := clients()
	if k == 1 {
		p.out["runner.parallel_efficiency"] = 1
		return
	}
	sweep := func(name string, parallelism int) time.Duration {
		d, _ := p.timed(name, -1, func() {
			experiments.Sweep(sweepConfig(seed, len(pages), parallelism), sweepSchemes())
		})
		return d
	}
	wide, serial := sweep("runner.sweep_k", k), sweep("runner.sweep_1", 1)
	p.out["runner.parallel_efficiency"] = serial.Seconds() / (float64(k) * wide.Seconds())
}

func (p *prober) cache(pages []webgen.Page) {
	var objs []objcache.Object
	for _, page := range pages {
		for _, o := range page.Objects {
			objs = append(objs, objcache.Object{URL: o.URL, ContentType: o.ContentType, Status: 200, Validator: "v1", Body: o.Body})
		}
	}
	const gets = 3
	c := objcache.New(objcache.Config{Capacity: 1 << 30})
	d, _ := p.timed("objcache.put", -1, func() {
		for _, o := range objs {
			c.Put(o)
		}
	})
	p.out["objcache.put_ns"] = per(float64(d), len(objs))
	d, _ = p.timed("objcache.get", -1, func() {
		for i := 0; i < gets; i++ {
			for _, o := range objs {
				c.Get(o.URL)
			}
		}
	})
	p.out["objcache.get_ns"] = per(float64(d), gets*len(objs))
	empty := objcache.New(objcache.Config{Capacity: 1 << 30})
	d, _ = p.timed("objcache.get_or_fetch_miss", -1, func() {
		for _, o := range objs {
			o := o
			// The fetch cannot fail; the probe times the miss path.
			_, _, _ = empty.GetOrFetch(o.URL, func() (objcache.Object, error) { return o, nil })
		}
	})
	p.out["objcache.miss_fetch_ns"] = per(float64(d), len(objs))
}

// originAndStore times the replay store's lookup and one object's trip
// through OriginFetcher.Fetch against StartOrigin on loopback.
func (p *prober) originAndStore(pages []webgen.Page) {
	store := replay.Rewriting{Store: replay.FromPages(pages...)}
	const gets = 3
	var urls []string
	for _, page := range pages {
		for _, o := range page.Objects {
			urls = append(urls, o.URL)
		}
	}
	d, _ := p.timed("replay.get", -1, func() {
		for i := 0; i < gets; i++ {
			for _, u := range urls {
				store.Get(u)
			}
		}
	})
	p.out["replay.get_ns"] = per(float64(d), gets*len(urls))

	origin, err := parcelnet.StartOrigin("127.0.0.1:0", store)
	if err != nil {
		return
	}
	defer origin.Close()
	fetcher := parcelnet.NewOriginFetcher(origin.Addr())
	fetched := 0
	d, _ = p.timed("parcelnet.origin_fetch", -1, func() {
		for _, page := range pages[:min(len(pages), 4)] {
			for _, o := range page.Objects {
				if strings.HasPrefix(o.URL, "http://") {
					if _, _, _, err := fetcher.Fetch(o.URL); err == nil {
						fetched++
					}
				}
			}
		}
	})
	fetcher.Client.CloseIdleConnections()
	p.out["parcelnet.origin_fetch_us_per_object"] = per(us(d), fetched)
}

// bundles times the schedule and the bundle container on each page's parts.
func (p *prober) bundles(pages []webgen.Page) {
	var items int
	var schedT, enc, dec time.Duration
	var bytes int64
	for pi, page := range pages {
		parts := make([]mhtml.Part, len(page.Objects))
		for i, o := range page.Objects {
			parts[i] = mhtml.Part{URL: o.URL, ContentType: o.ContentType, Status: 200, Body: o.Body}
		}
		d, _ := p.timed("sched.bundle", pi, func() {
			b := sched.NewBundler(sched.ConfigONLD, func([]sched.Item, sched.FlushReason) {})
			for _, part := range parts {
				b.Add(sched.Item{URL: part.URL, ContentType: part.ContentType, Status: 200, Body: part.Body})
			}
			b.OnLoad()
			b.Complete()
		})
		schedT, items = schedT+d, items+len(parts)
		var data []byte
		d, _ = p.timed("mhtml.encode", pi, func() { data = mhtml.Encode(parts) })
		enc, bytes = enc+d, bytes+int64(len(data))
		d, _ = p.timed("mhtml.decode", pi, func() {
			// Encode's own output always decodes; the probe times the parse.
			_, _ = mhtml.Decode(data)
		})
		dec += d
	}
	p.out["sched.ns_per_item"] = per(float64(schedT), items)
	if enc > 0 && dec > 0 {
		p.out["mhtml.encode_mb_per_s"] = float64(bytes) / 1e6 / enc.Seconds()
		p.out["mhtml.decode_mb_per_s"] = float64(bytes) / 1e6 / dec.Seconds()
	}
}

// wire times the parcelmux frame path through parcelnet.WireBench and the
// HPACK-lite meta codec, the way the hot-path bench drives them.
func (p *prober) wire() {
	const chunks, metas = 20_000, 200_000
	wb := parcelnet.NewWireBench(4<<20, 32<<10)
	d, _ := p.timed("parcelnet.mux_encode", -1, func() {
		for i := 0; i < chunks; i++ {
			wb.EncodeStep()
		}
	})
	p.out["parcelnet.mux_encode_ns_per_chunk"] = float64(d) / chunks
	d, _ = p.timed("parcelnet.mux_decode", -1, func() {
		for i := 0; i < chunks; i++ {
			// The harness replays its own frames; they always decode.
			_, _ = wb.DecodeStep()
		}
	})
	p.out["parcelnet.mux_decode_ns_per_chunk"] = float64(d) / chunks

	var enc parcelnet.MetaEncoder
	var dec parcelnet.MetaDecoder
	prime := enc.AppendMeta(nil, "https://bench.test/assets/app.css", "text/css", 200)
	// Priming mirrors the encoder's table insertion into the decoder.
	_, _, _, _, _ = dec.ReadMeta(prime)
	meta := enc.AppendMeta(nil, "https://bench.test/assets/hero.png", "image/png", 200)
	dst := prime
	d, _ = p.timed("parcelnet.meta_encode", -1, func() {
		for i := 0; i < metas; i++ {
			dst = enc.AppendMeta(dst[:0], "https://bench.test/assets/hero.png", "image/png", 200)
		}
	})
	p.out["parcelnet.meta_encode_ns"] = float64(d) / metas
	d, _ = p.timed("parcelnet.meta_decode", -1, func() {
		for i := 0; i < metas; i++ {
			_, _, _, _, _ = dec.ReadMeta(meta)
		}
	})
	p.out["parcelnet.meta_decode_ns"] = float64(d) / metas
}

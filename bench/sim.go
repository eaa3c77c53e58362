package main

import (
	"reflect"
	"time"

	"github.com/parcel-go/parcel/internal/experiments"
	"github.com/parcel-go/parcel/internal/metrics"
	"github.com/parcel-go/parcel/internal/radio"
	"github.com/parcel-go/parcel/internal/sched"
	"github.com/parcel-go/parcel/internal/webgen"
)

const (
	dirName = "DIR"
	indName = "PARCEL(IND)"
)

// sweepSchemes are the arms of the paper's §8 comparison.
func sweepSchemes() []experiments.Scheme {
	return []experiments.Scheme{
		experiments.DIRScheme,
		experiments.ParcelScheme(sched.ConfigIND),
		experiments.ParcelScheme(sched.Config512K),
		experiments.ParcelScheme(sched.ConfigONLD),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// simSweep loops experiments.Sweep over the page set and all four schemes:
// the whole simulator stack, none of the real proxy.
type simSweep struct {
	sz    sizing
	cfg   experiments.Config
	pages []webgen.Page
	// ref is the warm-up pass; every measured pass must equal it.
	ref []experiments.PageResult
	// unrepeatable counts loads whose post-onload tail differed from ref's.
	unrepeatable int
}

func sweepConfig(seed int64, pages, parallelism int) experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Seed, cfg.Pages, cfg.Runs, cfg.Parallelism = seed, pages, 1, parallelism
	return cfg
}

func (w *simSweep) setup(seed int64) error {
	w.cfg = sweepConfig(seed, w.sz.pages, clients())
	w.pages = w.cfg.PageSet()
	w.ref = experiments.Sweep(w.cfg, sweepSchemes())
	return nil
}

func (w *simSweep) pageSet() []webgen.Page { return w.pages }
func (w *simSweep) close()                 {}

func (w *simSweep) measure(d time.Duration, tr *tracer) window {
	win := window{scoped: map[string]float64{}}
	w.unrepeatable = 0
	schemes := sweepSchemes()
	deadline := time.Now().Add(d)
	for pass := int64(0); pass == 0 || time.Now().Before(deadline); pass++ {
		id := tr.begin("experiments.sweep", -1, pass)
		res := experiments.Sweep(w.cfg, schemes)
		tr.end(id)
		w.verifyPass(&win, res)
	}

	var dirOLT, indOLT, dirJ, indJ []float64
	for _, pr := range w.ref {
		d, p := pr.Runs[dirName], pr.Runs[indName]
		dirOLT, indOLT = append(dirOLT, d.OLT.Seconds()), append(indOLT, p.OLT.Seconds())
		dirJ, indJ = append(dirJ, d.RadioJ), append(indJ, p.RadioJ)
		win.plt = append(win.plt, ms(p.OLT))
	}
	if median(indOLT) >= median(dirOLT) {
		win.fail("median OLT PARCEL(IND) %.3fs is not below DIR %.3fs", median(indOLT), median(dirOLT))
	}
	win.scoped["sim_unrepeatable_share"] = per(float64(w.unrepeatable), win.attempted)
	win.scoped["sim_olt_p50_ms"] = median(indOLT) * 1e3
	win.scoped["sim_radio_j_p50"] = median(indJ)
	win.scoped["olt_reduction_pct"] = 100 * (1 - median(indOLT)/median(dirOLT))
	win.scoped["radio_reduction_pct"] = 100 * (1 - median(indJ)/median(dirJ))
	return win
}

// untilOnload is the part of a run that every reported figure but the radio
// energy rests on: it must repeat exactly. The rest — TLT, upstream bytes and
// the radio report, all shaped by the post-onload tail — does not always: at
// the parent commit the §4.5 fallback requests of a few pages under
// PARCEL(512K) (seed 12's sports25, say) go out in a different order from run
// to run, even on the serial legacy engine, moving TLT by some 60 µs and
// BytesUp by a few dozen bytes. Those loads are complete; they are counted in
// sim_unrepeatable_share instead of failing the workload. It should be 0.
func untilOnload(r metrics.PageRun) metrics.PageRun {
	r.TLT, r.BytesUp, r.Radio, r.RadioJ = 0, 0, radio.Report{}, 0
	return r
}

// verifyPass counts one sweep's loads: a load completes only if it reached
// onload with every object of its page loaded and equals the warm-up pass's
// result for the same (page, scheme) up to onload.
func (w *simSweep) verifyPass(win *window, res []experiments.PageResult) {
	for i, pr := range res {
		for name, run := range pr.Runs {
			win.attempted++
			win.wireBytes += run.BytesDown
			win.bodyBytes += pr.Page.TotalBytes
			if name == indName {
				win.pltSum += run.OLT
				win.pltBytes += pr.Page.TotalBytes
			}
			ref := w.ref[i].Runs[name]
			switch {
			case run.OLT <= 0:
				win.fail("%s %s never reached onload", pr.Page.Name, name)
			case run.ObjectsLoaded != pr.Page.ObjectCount:
				win.fail("%s %s loaded %d of %d objects", pr.Page.Name, name, run.ObjectsLoaded, pr.Page.ObjectCount)
			case !reflect.DeepEqual(untilOnload(run), untilOnload(ref)):
				win.fail("%s %s differs from the warm-up pass", pr.Page.Name, name)
			case !reflect.DeepEqual(run, ref):
				w.unrepeatable++
			}
		}
	}
}

// simFleet loops the virtual-clock multi-tenant proxy: 200 tenants through
// one core.Proxy with the shared object cache, on one event loop.
type simFleet struct {
	sz  sizing
	cfg experiments.LoadgenSimConfig
	ref experiments.LoadgenSimResult
}

func (w *simFleet) setup(seed int64) error {
	w.cfg = experiments.LoadgenSimConfig{
		Tenants:    w.sz.tenants,
		Pages:      w.sz.fleetPg,
		Seed:       seed,
		Sched:      sched.ConfigONLD,
		CacheBytes: 256 << 20,
	}
	w.ref = experiments.LoadgenSim(w.cfg)
	return nil
}

func (w *simFleet) pageSet() []webgen.Page {
	return webgen.Generate(webgen.Spec{Seed: w.cfg.Seed, NumPages: w.cfg.Pages})
}
func (w *simFleet) close() {}

func (w *simFleet) measure(d time.Duration, tr *tracer) window {
	win := window{scoped: map[string]float64{}}
	sizes := map[string]int64{}
	for _, p := range w.pageSet() {
		sizes[p.MainURL] = p.TotalBytes
	}
	deadline := time.Now().Add(d)
	for pass := int64(0); pass == 0 || time.Now().Before(deadline); pass++ {
		id := tr.begin("experiments.loadgen_sim", -1, pass)
		res := experiments.LoadgenSim(w.cfg)
		tr.end(id)
		same := reflect.DeepEqual(res.Loads, w.ref.Loads)
		for _, l := range res.Loads {
			win.attempted++
			win.wireBytes += l.EgressBytes
			win.bodyBytes += sizes[l.Page]
			win.pltSum += l.Latency
			switch {
			case !l.Completed:
				win.fail("tenant %d (%s) did not complete", l.ID, l.Page)
			case !same:
				win.fail("tenant %d differs from the previous pass", l.ID)
			}
		}
	}

	for _, l := range w.ref.Loads {
		if l.Completed {
			win.plt = append(win.plt, ms(l.Latency))
			if l.FirstCritical > 0 {
				win.ttfc = append(win.ttfc, ms(l.FirstCritical))
			}
		}
	}
	win.pltBytes = win.bodyBytes
	rep, cache := w.ref.Report, w.ref.Cache
	if rep.CacheHitRate <= 0 {
		win.fail("shared cache never hit")
	}
	win.scoped["sim_plt_p50_ms"] = ms(rep.P50)
	win.scoped["sim_plt_p90_ms"] = ms(rep.P90)
	win.scoped["objcache.hit_rate"] = rep.CacheHitRate
	win.scoped["objcache.evictions_per_load"] = per(float64(cache.Evictions), len(w.ref.Loads))
	win.scoped["objcache.shared_per_load"] = per(float64(cache.Shared), len(w.ref.Loads))
	win.scoped["parcelnet.deferred_per_load"] = per(float64(rep.Deferred), len(w.ref.Loads))
	win.scoped["parcelnet.shed_per_load"] = per(float64(rep.Shed), len(w.ref.Loads))
	win.scoped["parcelnet.origin_kb_per_load"] = rep.OriginPerSession / 1e3
	return win
}

package experiments

import (
	"fmt"
	"time"

	"github.com/parcel-go/parcel/internal/browser"
	"github.com/parcel-go/parcel/internal/dirbrowser"
	"github.com/parcel-go/parcel/internal/metrics"
	"github.com/parcel-go/parcel/internal/radio"
	"github.com/parcel-go/parcel/internal/runner"
	"github.com/parcel-go/parcel/internal/scenario"
	"github.com/parcel-go/parcel/internal/sched"
	"github.com/parcel-go/parcel/internal/stats"
	"github.com/parcel-go/parcel/internal/trace"
	"github.com/parcel-go/parcel/internal/webgen"
)

// --- The sweeps the figures reduce -------------------------------------------

// Setting is the topology a sweep runs on. Every sweep-based figure below is a
// reduction of the columns it reads of one or two settings' sweeps, so a
// caller that renders several figures runs each setting's sweep once, for the
// union of the schemes they read, and hands the same []PageResult to each.
type Setting uint8

const (
	// Calibrated is §7's testbed: cfg.Scenario as given (a 20 ms
	// proxy↔server delay unless the caller set another).
	Calibrated Setting = iota
	// RealServers gives every domain its own proxy↔origin delay (§8.4).
	RealServers
	// FarOrigin is §8.3's 60 ms proxy↔server delay.
	FarOrigin
)

// Apply returns cfg in setting s.
func (s Setting) Apply(cfg Config) Config {
	switch s {
	case RealServers:
		cfg.Scenario.HeterogeneousOrigins = true
	case FarOrigin:
		cfg.Scenario.ProxyOriginRTT = farOriginRTT
	}
	return cfg
}

const farOriginRTT = 60 * time.Millisecond

// The scheme columns the reductions read.
var (
	// HeadlineSchemes is the paper's main comparison, read of the Calibrated
	// sweep by Fig6b, Fig6c, Fig7bc and Summarize; Fig3 reads its DIR column.
	HeadlineSchemes = []Scheme{DIRScheme, ParcelScheme(sched.ConfigIND)}
	// BundlingSchemes is PARCEL(IND) and the bundling variants Fig9 reads of
	// the Calibrated sweep.
	BundlingSchemes = []Scheme{ParcelScheme(sched.ConfigIND), ParcelScheme(sched.Config512K),
		ParcelScheme(sched.Config1M), ParcelScheme(sched.Config2M), ParcelScheme(sched.ConfigONLD)}
	// RealServerSchemes is what Fig1011 reads of the RealServers sweep.
	RealServerSchemes = []Scheme{DIRScheme, ParcelScheme(sched.Config512K)}
	// DelaySchemes is what DelaySensitivity reads of the Calibrated and the
	// FarOrigin sweeps.
	DelaySchemes = []Scheme{ParcelScheme(sched.ConfigIND), ParcelScheme(sched.ConfigONLD)}
)

// column returns pr's median run of the named scheme. A reduction handed a
// sweep that did not run the scheme it reads has been handed the wrong sweep.
func (pr PageResult) column(name string) metrics.PageRun {
	run, ok := pr.Runs[name]
	if !ok {
		panic(fmt.Sprintf("experiments: the sweep has no %s column", name))
	}
	return run
}

// --- Figure 3: median OLT, cellular vs wired ------------------------------

// Fig3Result carries the two OLT distributions of Figure 3.
type Fig3Result struct {
	CellularOLT []float64 // seconds, one per page (median of runs)
	WiredOLT    []float64
}

// Fig3 compares the traditional browser over the LTE access (mobile device)
// with the same browser over a wire-line access (desktop-class client), the
// §2.3 motivation comparison. The cellular arm is the DIR column of
// calibrated, cfg's Calibrated sweep; the wired arm loads each of its pages
// once at cfg.Seed, the pages in parallel.
func Fig3(cfg Config, calibrated []PageResult) Fig3Result {
	var out Fig3Result
	for _, pr := range calibrated {
		out.CellularOLT = append(out.CellularOLT, pr.column("DIR").OLT.Seconds())
	}
	out.WiredOLT = runner.Map(cfg.Parallelism, len(calibrated), func(i int) float64 {
		params := cfg.Scenario
		params.Wired = true
		params.Seed = cfg.Seed
		topo := scenario.Build(calibrated[i].Page, params)
		return dirbrowser.New(topo, dirbrowser.Options{
			FixedRandom:      true,
			CPU:              browser.DesktopCPU(),
			RequestIssueCost: time.Millisecond,
			MaxTotalConns:    35, // desktop-class pool
		}).Load().OLT.Seconds()
	})
	return out
}

// --- Figure 5: download patterns ------------------------------------------

// Fig5Series is a client-side cumulative download timeline for one scheme.
type Fig5Series struct {
	Scheme  string
	Points  []trace.Point
	Bundles int
}

// Fig5Result shows the transfer patterns of DIR and the PARCEL schedules on
// one representative page.
type Fig5Result struct {
	Page   string
	Series []Fig5Series
}

// Fig5 reproduces the Figure 5 download-pattern comparison. The four arms
// (DIR plus three PARCEL schedules) each build a private topology and run in
// parallel.
func Fig5(cfg Config, pageIndex int) Fig5Result {
	cfg = cfg.withDefaults()
	pages := cfg.PageSet()
	page := pages[pageIndex%len(pages)]

	schemes := []Scheme{DIRScheme, ParcelScheme(sched.ConfigIND), ParcelScheme(sched.ConfigONLD), ParcelScheme(sched.Config512K)}
	series := runner.Map(cfg.Parallelism, len(schemes), func(i int) Fig5Series {
		topo, a := schemes[i].load(page, cfg, cfg.Seed, nil)
		out := Fig5Series{Scheme: schemes[i].Name, Points: topo.ClientTrace.CumulativeBytes(trace.Down)}
		if a.proxy != nil {
			out.Bundles = a.proxy.Sessions[0].BundlesSent
		}
		return out
	})
	return Fig5Result{Page: page.Name, Series: series}
}

// --- Figure 6a: per-page timeline ------------------------------------------

// Fig6aResult is the taobao-style timeline: cumulative bytes at the PARCEL
// proxy, the PARCEL client, and the DIR client, with their OLT marks.
type Fig6aResult struct {
	Page            string
	ProxySeries     []trace.Point
	ParcelSeries    []trace.Point
	DIRSeries       []trace.Point
	ProxyOnload     time.Duration
	ParcelClientOLT time.Duration
	DIRClientOLT    time.Duration
}

// Fig6a loads the largest page of the set with PARCEL and DIR and records
// the three download timelines of Figure 6a.
func Fig6a(cfg Config) Fig6aResult {
	cfg = cfg.withDefaults()
	pages := cfg.PageSet()
	page := pages[0]
	for _, p := range pages {
		if p.TotalBytes > page.TotalBytes {
			page = p
		}
	}
	// The DIR and PARCEL loads are independent topologies; run them as two
	// parallel tasks and merge the halves.
	schemes := []Scheme{DIRScheme, ParcelScheme(sched.ConfigIND)}
	halves := runner.Map(cfg.Parallelism, 2, func(i int) Fig6aResult {
		topo, a := schemes[i].load(page, cfg, cfg.Seed, nil)
		series := topo.ClientTrace.CumulativeBytes(trace.Down)
		olt := a.run(new(metrics.Collector)).OLT
		if a.proxy == nil {
			return Fig6aResult{DIRSeries: series, DIRClientOLT: olt}
		}
		sess := a.proxy.Sessions[0]
		return Fig6aResult{ParcelSeries: series, ParcelClientOLT: olt, ProxyOnload: sess.OnloadAt, ProxySeries: sess.DownloadTimeline()}
	})
	out := halves[1]
	out.Page = page.Name
	out.DIRSeries = halves[0].DIRSeries
	out.DIRClientOLT = halves[0].DIRClientOLT
	return out
}

// --- Figure 6b: latency CDFs ------------------------------------------------

// Fig6bResult holds per-page median latencies for PARCEL(IND) and DIR.
type Fig6bResult struct {
	ParcelOLT, ParcelTLT []float64 // seconds
	DIROLT, DIRTLT       []float64
}

// Fig6b reduces the Calibrated sweep's DIR and PARCEL(IND) columns.
func Fig6b(calibrated []PageResult) Fig6bResult {
	var out Fig6bResult
	for _, pr := range calibrated {
		d := pr.column("DIR")
		p := pr.column("PARCEL(IND)")
		out.DIROLT = append(out.DIROLT, d.OLT.Seconds())
		out.DIRTLT = append(out.DIRTLT, d.TLT.Seconds())
		out.ParcelOLT = append(out.ParcelOLT, p.OLT.Seconds())
		out.ParcelTLT = append(out.ParcelTLT, p.TLT.Seconds())
	}
	return out
}

// --- Figure 6c: latency reduction vs request count --------------------------

// Fig6cPoint is one page's scatter point.
type Fig6cPoint struct {
	Page         string
	HTTPRequests int     // client HTTP requests under DIR
	ReductionSec float64 // DIR TLT − PARCEL TLT (median)
}

// Fig6cResult is the scatter plus its Pearson correlation (paper: 0.83).
type Fig6cResult struct {
	Points      []Fig6cPoint
	Correlation float64
}

// Fig6c correlates total-latency reduction with the number of HTTP requests,
// over the Calibrated sweep's DIR and PARCEL(IND) columns.
func Fig6c(calibrated []PageResult) Fig6cResult {
	var out Fig6cResult
	var xs, ys []float64
	for _, pr := range calibrated {
		d := pr.column("DIR")
		p := pr.column("PARCEL(IND)")
		pt := Fig6cPoint{
			Page:         pr.Page.Name,
			HTTPRequests: d.HTTPRequests,
			ReductionSec: d.TLT.Seconds() - p.TLT.Seconds(),
		}
		out.Points = append(out.Points, pt)
		xs = append(xs, float64(pt.HTTPRequests))
		ys = append(ys, pt.ReductionSec)
	}
	out.Correlation = stats.Pearson(xs, ys)
	return out
}

// --- Figure 7a: RRC states over time ----------------------------------------

// Fig7aResult compares RRC occupancy for one page (the ebay-style example:
// DIR 22 transitions / 11.16 J vs PARCEL 7 transitions / 5.63 J).
type Fig7aResult struct {
	Page              string
	DIRIntervals      []radio.Interval
	ParcelIntervals   []radio.Interval
	DIRTransitions    int
	ParcelTransitions int
	DIREnergy         float64
	ParcelEnergy      float64
	DIROnload         time.Duration
	ParcelOnload      time.Duration
}

// Fig7a runs the interactive (ebay-style) page under both schemes (two
// parallel tasks).
func Fig7a(cfg Config) Fig7aResult {
	cfg = cfg.withDefaults()
	page := webgen.InteractivePage(cfg.PageSet())
	schemes := []Scheme{DIRScheme, ParcelScheme(sched.ConfigIND)}
	runs := runner.Map(cfg.Parallelism, 2, func(i int) metrics.PageRun {
		return RunOnce(page, schemes[i], cfg, cfg.Seed)
	})
	dRun, pRun := runs[0], runs[1]

	return Fig7aResult{
		Page:              page.Name,
		DIRIntervals:      dRun.Radio.Intervals,
		ParcelIntervals:   pRun.Radio.Intervals,
		DIRTransitions:    dRun.Radio.Transitions,
		ParcelTransitions: pRun.Radio.Transitions,
		DIREnergy:         dRun.RadioJ,
		ParcelEnergy:      pRun.RadioJ,
		DIROnload:         dRun.OLT,
		ParcelOnload:      pRun.OLT,
	}
}

// --- Figure 7b/7c: radio energy CDF and savings -----------------------------

// Fig7bcResult carries the per-page radio energies and derived savings.
type Fig7bcResult struct {
	Pages         []string
	ParcelEnergy  []float64 // joules
	DIREnergy     []float64
	TotalSavings  []float64 // fraction of DIR energy saved
	CRSavingShare []float64 // share of the saving attributable to CR
}

// Fig7bc reduces the Calibrated sweep's DIR and PARCEL(IND) columns to the
// Figure 7b CDF and the Figure 7c per-page savings decomposition.
func Fig7bc(calibrated []PageResult) Fig7bcResult {
	var out Fig7bcResult
	for _, pr := range calibrated {
		d := pr.column("DIR")
		p := pr.column("PARCEL(IND)")
		out.Pages = append(out.Pages, pr.Page.Name)
		out.DIREnergy = append(out.DIREnergy, d.RadioJ)
		out.ParcelEnergy = append(out.ParcelEnergy, p.RadioJ)
		saving := d.RadioJ - p.RadioJ
		frac := 0.0
		if d.RadioJ > 0 {
			frac = saving / d.RadioJ
		}
		out.TotalSavings = append(out.TotalSavings, frac)
		crSave := d.Radio.EnergyByState[radio.CR] - p.Radio.EnergyByState[radio.CR]
		share := 0.0
		if saving > 0 {
			share = crSave / saving
			if share > 1 {
				share = 1
			}
			if share < 0 {
				share = 0
			}
		}
		out.CRSavingShare = append(out.CRSavingShare, share)
	}
	return out
}

// --- Figure 9: bundling variants ---------------------------------------------

// Fig9Result holds, per page, the OLT and radio-energy increases of each
// bundling variant relative to PARCEL(IND), plus page sizes for Figure 9c.
type Fig9Result struct {
	Variants       []string
	OLTIncrease    map[string][]float64 // seconds, per page
	EnergyIncrease map[string][]float64 // joules, per page
	PageBytes      []float64
}

// Fig9 compares PARCEL(512K/1M/2M/ONLD) against PARCEL(IND) (§8.3), over
// the Calibrated sweep's BundlingSchemes columns.
func Fig9(calibrated []PageResult) Fig9Result {
	out := Fig9Result{
		OLTIncrease:    make(map[string][]float64),
		EnergyIncrease: make(map[string][]float64),
	}
	for _, v := range BundlingSchemes[1:] {
		out.Variants = append(out.Variants, v.Name)
	}
	for _, pr := range calibrated {
		base := pr.column("PARCEL(IND)")
		out.PageBytes = append(out.PageBytes, float64(pr.Page.TotalBytes))
		for _, v := range out.Variants {
			run := pr.column(v)
			out.OLTIncrease[v] = append(out.OLTIncrease[v], run.OLT.Seconds()-base.OLT.Seconds())
			out.EnergyIncrease[v] = append(out.EnergyIncrease[v], run.RadioJ-base.RadioJ)
		}
	}
	return out
}

// --- Figures 10/11: real web servers -----------------------------------------

// Fig1011Result compares PARCEL(512K) and DIR with heterogeneous per-domain
// origin delays (§8.4).
type Fig1011Result struct {
	ParcelOLT, DIROLT       []float64
	ParcelEnergy, DIREnergy []float64
}

// Fig1011 reduces the RealServers sweep's DIR and PARCEL(512K) columns.
func Fig1011(realServers []PageResult) Fig1011Result {
	var out Fig1011Result
	for _, pr := range realServers {
		d := pr.column("DIR")
		p := pr.column("PARCEL(512K)")
		out.DIROLT = append(out.DIROLT, d.OLT.Seconds())
		out.ParcelOLT = append(out.ParcelOLT, p.OLT.Seconds())
		out.DIREnergy = append(out.DIREnergy, d.RadioJ)
		out.ParcelEnergy = append(out.ParcelEnergy, p.RadioJ)
	}
	return out
}

// --- §8.3 delay sensitivity ---------------------------------------------------

// DelaySensResult compares IND and ONLD under two proxy↔server RTTs.
type DelaySensResult struct {
	RTTs []time.Duration
	// Keyed by RTT string then scheme name: median OLT (s), median energy (J).
	MedianOLT    map[string]map[string]float64
	MedianEnergy map[string]map[string]float64
}

// DelaySensitivity reduces the §8.3 sensitivity study (20 ms vs 60 ms) from
// the DelaySchemes columns of the Calibrated sweep (the 20 ms row) and of the
// FarOrigin sweep (the 60 ms row).
func DelaySensitivity(calibrated, farOrigin []PageResult) DelaySensResult {
	out := DelaySensResult{
		RTTs:         []time.Duration{20 * time.Millisecond, farOriginRTT},
		MedianOLT:    make(map[string]map[string]float64),
		MedianEnergy: make(map[string]map[string]float64),
	}
	for i, sweep := range [][]PageResult{calibrated, farOrigin} {
		key := out.RTTs[i].String()
		out.MedianOLT[key] = map[string]float64{}
		out.MedianEnergy[key] = map[string]float64{}
		for _, s := range DelaySchemes {
			var olts, energies []float64
			for _, pr := range sweep {
				run := pr.column(s.Name)
				olts = append(olts, run.OLT.Seconds())
				energies = append(energies, run.RadioJ)
			}
			out.MedianOLT[key][s.Name] = stats.Median(olts)
			out.MedianEnergy[key][s.Name] = stats.Median(energies)
		}
	}
	return out
}

// --- Headline summary -----------------------------------------------------------

// Summary is the paper's abstract-level result: median OLT and radio-energy
// reductions of PARCEL(IND) vs DIR.
type Summary struct {
	DIRMedianOLT, ParcelMedianOLT       float64 // seconds
	DIRMedianEnergy, ParcelMedianEnergy float64 // joules
	OLTReduction, EnergyReduction       float64 // fractions
	PaperOLTReduction                   float64
	PaperEnergyReduction                float64
}

// Headline computes the abstract numbers (paper: 49.6% and 65%): it sweeps
// cfg's HeadlineSchemes and summarizes them.
func Headline(cfg Config) Summary { return Summarize(Sweep(cfg, HeadlineSchemes)) }

// Summarize reduces the Calibrated sweep's DIR and PARCEL(IND) columns to the
// abstract numbers.
func Summarize(calibrated []PageResult) Summary {
	latency, energy := Fig6b(calibrated), Fig7bc(calibrated)
	s := Summary{
		DIRMedianOLT:         stats.Median(latency.DIROLT),
		ParcelMedianOLT:      stats.Median(latency.ParcelOLT),
		DIRMedianEnergy:      stats.Median(energy.DIREnergy),
		ParcelMedianEnergy:   stats.Median(energy.ParcelEnergy),
		PaperOLTReduction:    0.496,
		PaperEnergyReduction: 0.65,
	}
	if s.DIRMedianOLT > 0 {
		s.OLTReduction = 1 - s.ParcelMedianOLT/s.DIRMedianOLT
	}
	if s.DIRMedianEnergy > 0 {
		s.EnergyReduction = 1 - s.ParcelMedianEnergy/s.DIRMedianEnergy
	}
	return s
}

// SPDYResult is the future-work quantitative comparison (§9): DIR vs a
// SPDY-transport browser vs PARCEL(IND).
type SPDYResult struct {
	DIROLT, SPDYOLT, ParcelOLT          []float64
	DIREnergy, SPDYEnergy, ParcelEnergy []float64
}

// SPDYComparison sweeps the page set across the three arms. Every
// (page, arm) pair is an independent topology, so the sweep fans all of them
// out on the batch engine and reassembles per-page triples in index order.
func SPDYComparison(cfg Config) SPDYResult {
	cfg = cfg.withDefaults()
	pages := cfg.PageSet()
	schemes := []Scheme{DIRScheme, SPDYScheme, ParcelScheme(sched.ConfigIND)}
	arms := len(schemes)
	runs := runTasks(cfg, len(pages)*arms, func(i int) batchTask {
		return batchTask{page: pages[i/arms], s: schemes[i%arms], seed: cfg.Seed}
	})
	var out SPDYResult
	for pi := range pages {
		d, sp, p := runs[pi*arms], runs[pi*arms+1], runs[pi*arms+2]
		out.DIROLT = append(out.DIROLT, d.OLT.Seconds())
		out.SPDYOLT = append(out.SPDYOLT, sp.OLT.Seconds())
		out.ParcelOLT = append(out.ParcelOLT, p.OLT.Seconds())
		out.DIREnergy = append(out.DIREnergy, d.RadioJ)
		out.SPDYEnergy = append(out.SPDYEnergy, sp.RadioJ)
		out.ParcelEnergy = append(out.ParcelEnergy, p.RadioJ)
	}
	return out
}

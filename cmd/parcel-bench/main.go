// Command parcel-bench regenerates every table and figure of the PARCEL
// paper's evaluation (§8) and prints the series each one plots.
//
// Usage:
//
//	parcel-bench [-pages N] [-runs N] [-seed S] [-jitter D] [-parallelism N] TARGET...
//
// Targets: fig3 fig5 fig6a fig6b fig6c fig7a fig7b fig7c fig8 fig9 fig10
// fig11 model delay table1 spdy summary losssweep all
//
// Independent targets render concurrently (each into its own buffer, printed
// in request order); the simulations inside each target additionally fan out
// on the -parallelism worker pool. Each sweep the requested targets reduce
// runs once, for the union of the schemes they read of it.
//
// Absolute numbers come from a simulator, not the authors' LTE testbed; the
// shapes (who wins, by what factor, the trade-off orderings) are what the
// harness reproduces. See EXPERIMENTS.md for paper-vs-measured.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/parcel-go/parcel/internal/experiments"
	"github.com/parcel-go/parcel/internal/radio"
	"github.com/parcel-go/parcel/internal/runner"
	"github.com/parcel-go/parcel/internal/sched"
	"github.com/parcel-go/parcel/internal/stats"
	"github.com/parcel-go/parcel/internal/trace"
)

var allTargets = []string{
	"fig3", "fig5", "fig6a", "fig6b", "fig6c", "fig7a", "fig7b", "fig7c",
	"fig8", "fig9", "fig10", "fig11", "model", "delay", "table1", "spdy",
	"summary", "losssweep",
}

// reads lists, for each sweep-based target, the schemes it reads of each
// setting's sweep. The other targets run their own simulations.
var reads = map[string]map[experiments.Setting][]experiments.Scheme{
	"fig3":    {experiments.Calibrated: {experiments.DIRScheme}},
	"fig6b":   {experiments.Calibrated: experiments.HeadlineSchemes},
	"fig6c":   {experiments.Calibrated: experiments.HeadlineSchemes},
	"fig7b":   {experiments.Calibrated: experiments.HeadlineSchemes},
	"fig7c":   {experiments.Calibrated: experiments.HeadlineSchemes},
	"summary": {experiments.Calibrated: experiments.HeadlineSchemes},
	"fig9":    {experiments.Calibrated: experiments.BundlingSchemes},
	"fig10":   {experiments.RealServers: experiments.RealServerSchemes},
	"fig11":   {experiments.RealServers: experiments.RealServerSchemes},
	"delay":   {experiments.Calibrated: experiments.DelaySchemes, experiments.FarOrigin: experiments.DelaySchemes},
}

// sweeps holds one sweep per setting the requested targets read, over the
// union of the schemes they read of it. The first target to ask for a sweep
// runs it; the others wait for that run.
type sweeps map[experiments.Setting]func() []experiments.PageResult

func planSweeps(cfg experiments.Config, targets []string) sweeps {
	union := map[experiments.Setting][]experiments.Scheme{}
	for _, t := range targets {
		for setting, schemes := range reads[t] {
			for _, s := range schemes {
				if !slices.Contains(union[setting], s) {
					union[setting] = append(union[setting], s)
				}
			}
		}
	}
	sw := sweeps{}
	for setting, schemes := range union {
		sw[setting] = sync.OnceValue(func() []experiments.PageResult {
			return experiments.Sweep(setting.Apply(cfg), schemes)
		})
	}
	return sw
}

func main() {
	pages := flag.Int("pages", 34, "evaluation page-set size (paper: 34)")
	runs := flag.Int("runs", 3, "measurement rounds per page/scheme")
	seed := flag.Int64("seed", 1, "generator and jitter seed")
	jitter := flag.Duration("jitter", 2*time.Millisecond, "LTE per-packet jitter stddev")
	parallelism := flag.Int("parallelism", 0, "simulation worker pool size (0 = one per CPU, 1 = serial)")
	flag.Parse()

	cfg := experiments.DefaultConfig()
	cfg.Pages = *pages
	cfg.Runs = *runs
	cfg.Seed = *seed
	cfg.Scenario.LTEJitter = *jitter
	cfg.Parallelism = *parallelism

	targets := flag.Args()
	if len(targets) == 0 {
		fmt.Fprintf(os.Stderr, "usage: parcel-bench [flags] TARGET...\ntargets: %s all\n",
			strings.Join(allTargets, " "))
		os.Exit(2)
	}
	if len(targets) == 1 && targets[0] == "all" {
		targets = allTargets
	}

	// Validate everything up front so an unknown target fails before any
	// multi-second sweep starts.
	for _, t := range targets {
		if !slices.Contains(allTargets, t) {
			fmt.Fprintf(os.Stderr, "parcel-bench: unknown target %q (want one of %s)\n",
				t, strings.Join(allTargets, " "))
			os.Exit(2)
		}
	}

	run(os.Stdout, cfg, targets)
}

// run renders targets to w in order. Targets are independent of one another
// but for the sweeps they share: render them concurrently, each into a
// private buffer, and write the buffers in the order they were asked for.
func run(w io.Writer, cfg experiments.Config, targets []string) {
	sw := planSweeps(cfg, targets)
	outputs := runner.Map(cfg.Parallelism, len(targets), func(i int) []byte {
		var buf bytes.Buffer
		render(&buf, targets[i], cfg, sw)
		return buf.Bytes()
	})
	for _, out := range outputs {
		w.Write(out)
	}
}

func render(w io.Writer, target string, cfg experiments.Config, sw sweeps) {
	switch target {
	case "fig3":
		fig3(w, experiments.Fig3(cfg, sw[experiments.Calibrated]()))
	case "fig5":
		fig5(w, cfg)
	case "fig6a":
		fig6a(w, cfg)
	case "fig6b":
		fig6b(w, experiments.Fig6b(sw[experiments.Calibrated]()))
	case "fig6c":
		fig6c(w, experiments.Fig6c(sw[experiments.Calibrated]()))
	case "fig7a":
		fig7a(w, cfg)
	case "fig7b":
		fig7b(w, experiments.Fig7bc(sw[experiments.Calibrated]()))
	case "fig7c":
		fig7c(w, experiments.Fig7bc(sw[experiments.Calibrated]()))
	case "fig8":
		fig8(w, cfg)
	case "fig9":
		fig9(w, experiments.Fig9(sw[experiments.Calibrated]()))
	case "fig10":
		fig10(w, experiments.Fig1011(sw[experiments.RealServers]()))
	case "fig11":
		fig11(w, experiments.Fig1011(sw[experiments.RealServers]()))
	case "model":
		model(w)
	case "delay":
		delay(w, experiments.DelaySensitivity(sw[experiments.Calibrated](), sw[experiments.FarOrigin]()))
	case "table1":
		table1(w, cfg)
	case "spdy":
		spdy(w, cfg)
	case "summary":
		summary(w, experiments.Summarize(sw[experiments.Calibrated]()))
	case "losssweep":
		losssweep(w, cfg)
	}
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}

// cdfRows prints the quartile summary of one or more labelled series.
func cdfRows(w io.Writer, label string, series map[string][]float64, unit string) {
	names := make([]string, 0, len(series))
	for name := range series {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-16s %8s %8s %8s %8s %8s  (%s)\n", label, "P10", "P25", "P50", "P75", "P90", unit)
	for _, name := range names {
		xs := series[name]
		fmt.Fprintf(w, "%-16s %8.2f %8.2f %8.2f %8.2f %8.2f\n", name,
			stats.Percentile(xs, 10), stats.Percentile(xs, 25), stats.Median(xs),
			stats.Percentile(xs, 75), stats.Percentile(xs, 90))
	}
}

// cdfSteps prints a coarse CDF (x at each decile) for plotting.
func cdfSteps(w io.Writer, name string, xs []float64) {
	fmt.Fprintf(w, "  %s CDF:", name)
	for p := 10.0; p <= 100; p += 10 {
		fmt.Fprintf(w, " %.0f%%=%.2f", p, stats.Percentile(xs, p))
	}
	fmt.Fprintln(w)
}

func fig3(w io.Writer, r experiments.Fig3Result) {
	header(w, "Figure 3: median OLT CDF, cellular vs wired download (DIR)")
	cdfRows(w, "access", map[string][]float64{
		"cellular (LTE)": r.CellularOLT,
		"wired":          r.WiredOLT,
	}, "seconds")
	fmt.Fprintf(w, "paper: LTE median > 6 s (max ≈ 13 s); wired median ≈ 1.1 s (max ≈ 4 s)\n")
	fmt.Fprintf(w, "measured: LTE median %.2f s; wired median %.2f s\n",
		stats.Median(r.CellularOLT), stats.Median(r.WiredOLT))
}

func fig5(w io.Writer, cfg experiments.Config) {
	header(w, "Figure 5: download patterns (client cumulative bytes)")
	r := experiments.Fig5(cfg, 2)
	fmt.Fprintf(w, "page %s\n", r.Page)
	for _, s := range r.Series {
		lastAt, lastBytes := time.Duration(0), int64(0)
		if n := len(s.Points); n > 0 {
			lastAt, lastBytes = s.Points[n-1].At, s.Points[n-1].Bytes
		}
		fmt.Fprintf(w, "  %-14s transfers=%3d done=%6.2fs bytes=%8d", s.Scheme, len(s.Points), lastAt.Seconds(), lastBytes)
		if s.Bundles > 0 {
			fmt.Fprintf(w, " bundles=%d", s.Bundles)
		}
		fmt.Fprintln(w)
	}
}

func fig6a(w io.Writer, cfg experiments.Config) {
	header(w, "Figure 6a: per-page download timeline, PARCEL vs DIR (largest page)")
	r := experiments.Fig6a(cfg)
	fmt.Fprintf(w, "page %s\n", r.Page)
	fmt.Fprintf(w, "  PARCEL proxy onload  %6.2fs\n", r.ProxyOnload.Seconds())
	fmt.Fprintf(w, "  PARCEL client OLT    %6.2fs\n", r.ParcelClientOLT.Seconds())
	fmt.Fprintf(w, "  DIR client OLT       %6.2fs\n", r.DIRClientOLT.Seconds())
	fmt.Fprintf(w, "  timeline samples (time -> cumulative MB):\n")
	printTimeline(w, "proxy", r.ProxySeries)
	printTimeline(w, "PARCEL client", r.ParcelSeries)
	printTimeline(w, "DIR client", r.DIRSeries)
}

func printTimeline(w io.Writer, name string, pts []trace.Point) {
	fmt.Fprintf(w, "    %-14s", name)
	if len(pts) == 0 {
		fmt.Fprintln(w, " (empty)")
		return
	}
	step := len(pts) / 6
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(pts); i += step {
		fmt.Fprintf(w, " %0.1fs:%.2f", pts[i].At.Seconds(), float64(pts[i].Bytes)/1e6)
	}
	last := pts[len(pts)-1]
	fmt.Fprintf(w, " %0.1fs:%.2f\n", last.At.Seconds(), float64(last.Bytes)/1e6)
}

func fig6b(w io.Writer, r experiments.Fig6bResult) {
	header(w, "Figure 6b: latency CDFs, PARCEL(IND) vs DIR")
	cdfRows(w, "latency", map[string][]float64{
		"PARCEL OLT": r.ParcelOLT,
		"PARCEL TLT": r.ParcelTLT,
		"DIR OLT":    r.DIROLT,
		"DIR TLT":    r.DIRTLT,
	}, "seconds")
	cdfSteps(w, "PARCEL OLT", r.ParcelOLT)
	cdfSteps(w, "DIR OLT", r.DIROLT)
	fracUnder := func(xs []float64, v float64) float64 { return stats.CDFAt(xs, v) }
	fmt.Fprintf(w, "paper: 70%% of pages < 3 s PARCEL OLT; 10%% of pages < 3 s DIR OLT\n")
	fmt.Fprintf(w, "measured: %.0f%% PARCEL OLT < 3 s; %.0f%% DIR OLT < 3 s\n",
		100*fracUnder(r.ParcelOLT, 3), 100*fracUnder(r.DIROLT, 3))
}

func fig6c(w io.Writer, r experiments.Fig6cResult) {
	header(w, "Figure 6c: total-latency reduction vs number of HTTP requests")
	for _, p := range r.Points {
		fmt.Fprintf(w, "  %-14s requests=%4d reduction=%6.2fs\n", p.Page, p.HTTPRequests, p.ReductionSec)
	}
	fmt.Fprintf(w, "correlation: measured %.2f (paper: 0.83)\n", r.Correlation)
}

func fig7a(w io.Writer, cfg experiments.Config) {
	header(w, "Figure 7a: RRC states over time (interactive page)")
	r := experiments.Fig7a(cfg)
	fmt.Fprintf(w, "page %s\n", r.Page)
	fmt.Fprintf(w, "  DIR:    transitions=%2d energy=%5.2fJ onload=%5.2fs\n",
		r.DIRTransitions, r.DIREnergy, r.DIROnload.Seconds())
	fmt.Fprintf(w, "  PARCEL: transitions=%2d energy=%5.2fJ onload=%5.2fs\n",
		r.ParcelTransitions, r.ParcelEnergy, r.ParcelOnload.Seconds())
	fmt.Fprintf(w, "paper example (ebay.com): DIR 22 transitions / 11.16 J; PARCEL 7 / 5.63 J\n")
	fmt.Fprintf(w, "  DIR state timeline:    %s\n", compressIntervals(r.DIRIntervals))
	fmt.Fprintf(w, "  PARCEL state timeline: %s\n", compressIntervals(r.ParcelIntervals))
}

// compressIntervals renders an RRC interval sequence as "STATE(dur) ...".
func compressIntervals(ivs []radio.Interval) string {
	var b strings.Builder
	for i, iv := range ivs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s(%.2fs)", iv.State, iv.Duration().Seconds())
		if i > 14 {
			fmt.Fprintf(&b, " …(+%d)", len(ivs)-i-1)
			break
		}
	}
	return b.String()
}

func fig7b(w io.Writer, r experiments.Fig7bcResult) {
	header(w, "Figure 7b: per-page median radio energy, PARCEL vs DIR")
	cdfRows(w, "radio energy", map[string][]float64{
		"PARCEL": r.ParcelEnergy,
		"DIR":    r.DIREnergy,
	}, "joules")
	fmt.Fprintf(w, "paper: PARCEL < 4 J for 80%% of pages (max 8 J); DIR < 4 J for 38%% (max 13 J)\n")
	fmt.Fprintf(w, "measured: PARCEL < 4 J for %.0f%%; DIR < 4 J for %.0f%%\n",
		100*stats.CDFAt(r.ParcelEnergy, 4), 100*stats.CDFAt(r.DIREnergy, 4))
}

func fig7c(w io.Writer, r experiments.Fig7bcResult) {
	header(w, "Figure 7c: radio-energy savings fraction per page (and CR share)")
	atLeast20, atLeast50, crHalf := 0, 0, 0
	for i := range r.Pages {
		fmt.Fprintf(w, "  %-14s saving=%5.1f%% CR-share=%5.1f%%\n",
			r.Pages[i], 100*r.TotalSavings[i], 100*r.CRSavingShare[i])
		if r.TotalSavings[i] >= 0.20 {
			atLeast20++
		}
		if r.TotalSavings[i] >= 0.50 {
			atLeast50++
		}
		if r.CRSavingShare[i] >= 0.5 {
			crHalf++
		}
	}
	n := len(r.Pages)
	fmt.Fprintf(w, "paper: >= 20%% saving for 95%% of pages; >= 50%% for half; CR accounts for >= 50%% of savings on 85%%\n")
	fmt.Fprintf(w, "measured: >= 20%% on %d/%d; >= 50%% on %d/%d; CR-dominant on %d/%d\n",
		atLeast20, n, atLeast50, n, crHalf, n)
}

func fig8(w io.Writer, cfg experiments.Config) {
	header(w, "Figure 8: cumulative radio & total device energy over a user session")
	r := experiments.Fig8(cfg)
	fmt.Fprintf(w, "page %s, %d clicks at 60 s intervals\n", r.Page, r.Clicks)
	fmt.Fprintf(w, "%-8s", "event")
	for _, s := range r.Results {
		fmt.Fprintf(w, " | %-9s radio/total", s.Scheme)
	}
	fmt.Fprintln(w)
	if len(r.Results) > 0 {
		for i := range r.Results[0].Points {
			fmt.Fprintf(w, "%-8s", r.Results[0].Points[i].Label)
			for _, s := range r.Results {
				fmt.Fprintf(w, " | %7.2fJ / %7.2fJ   ", s.Points[i].CumRadioJ, s.Points[i].CumTotalJ)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w, "paper: CB radio grows every click; PARCEL/DIR flat; CB total lowest at FD but highest by C4")
}

func fig9(w io.Writer, r experiments.Fig9Result) {
	header(w, "Figure 9: bundling variants vs PARCEL(IND)")
	olt := map[string][]float64{}
	energy := map[string][]float64{}
	for _, v := range r.Variants {
		olt[v] = r.OLTIncrease[v]
		energy[v] = r.EnergyIncrease[v]
	}
	fmt.Fprintln(w, "(9a) OLT increase over IND:")
	cdfRows(w, "variant", olt, "seconds")
	fmt.Fprintln(w, "(9b) radio-energy increase over IND:")
	cdfRows(w, "variant", energy, "joules")
	fmt.Fprintln(w, "(9c) page size vs energy increase for PARCEL(512K):")
	for i := range r.PageBytes {
		fmt.Fprintf(w, "  %6.2fMB  %+6.2fJ\n", r.PageBytes[i]/1e6, r.EnergyIncrease["PARCEL(512K)"][i])
	}
	fmt.Fprintln(w, "paper: ONLD OLT increase ≈ 0.57 s, 512K ≈ 0.11 s; 512K saves energy on ~60% of pages, mainly large ones")
}

func fig10(w io.Writer, r experiments.Fig1011Result) {
	header(w, "Figure 10: OLT with real web servers (heterogeneous origin RTTs)")
	cdfRows(w, "OLT", map[string][]float64{
		"PARCEL(512K)": r.ParcelOLT,
		"DIR":          r.DIROLT,
	}, "seconds")
	fmt.Fprintf(w, "paper: PARCEL(512K) median < 2.5 s vs DIR ≈ 6 s\n")
}

func fig11(w io.Writer, r experiments.Fig1011Result) {
	header(w, "Figure 11: radio energy with real web servers")
	cdfRows(w, "radio energy", map[string][]float64{
		"PARCEL(512K)": r.ParcelEnergy,
		"DIR":          r.DIREnergy,
	}, "joules")
	fmt.Fprintf(w, "paper: PARCEL(512K) all pages < 6.5 J; DIR significantly higher for ~40%% of pages\n")
}

func model(w io.Writer) {
	header(w, "§6 analytical model: optimal bundle size")
	m := experiments.Model()
	fmt.Fprintf(w, "alpha: measured %.3f (paper: %.2f)\n", m.Alpha, m.PaperAlpha)
	fmt.Fprintf(w, "b* for 2 MB page at 6 Mbps: %.0f KB (paper: ≈ 900 KB)\n", m.OptimalBundle/1e3)
	fmt.Fprintf(w, "E(n)/OLT(n) trade-off (Tp = 2 s):\n")
	for _, pt := range m.Curve {
		if int(pt.N)%4 == 1 || pt.N == m.MinEnergyN {
			fmt.Fprintf(w, "  n=%2.0f  OLT=%5.2fs  E=%6.2fJ\n", pt.N, pt.OLT.Seconds(), pt.EnergyJ)
		}
	}
	fmt.Fprintf(w, "energy-minimizing n on curve: %.0f\n", m.MinEnergyN)
}

func delay(w io.Writer, r experiments.DelaySensResult) {
	header(w, "§8.3 sensitivity: proxy↔server delay 20 ms vs 60 ms")
	for _, rtt := range r.RTTs {
		k := rtt.String()
		fmt.Fprintf(w, "  RTT %-6s IND OLT=%5.2fs E=%5.2fJ | ONLD OLT=%5.2fs E=%5.2fJ\n", k,
			r.MedianOLT[k]["PARCEL(IND)"], r.MedianEnergy[k]["PARCEL(IND)"],
			r.MedianOLT[k]["PARCEL(ONLD)"], r.MedianEnergy[k]["PARCEL(ONLD)"])
	}
	fmt.Fprintln(w, "paper: higher delay raises ONLD's latency penalty but improves its relative energy")
}

func table1(w io.Writer, cfg experiments.Config) {
	header(w, "Table 1: PARCEL vs existing approaches")
	fmt.Fprintf(w, "%-28s %-12s %-12s %-14s %-10s\n", "property", "HTTP proxies", "SPDY proxies", "cloud browsers", "PARCEL")
	for _, row := range experiments.Table1Static() {
		fmt.Fprintf(w, "%-28s %-12s %-12s %-14s %-10s\n", row.Property, row.HTTPProxy, row.SPDYProxy, row.CloudBrowser, row.PARCEL)
	}
	m := experiments.MeasureTable1(cfg)
	fmt.Fprintf(w, "measured backing: PARCEL client %d conn / %d request; DIR client %d conns / %d requests; proxy identified %d objects; interaction packets %d\n",
		m.ParcelClientConns, m.ParcelClientRequests, m.DIRClientConns, m.DIRClientRequests, m.ParcelProxyIdentified, m.InteractionPackets)
}

func spdy(w io.Writer, cfg experiments.Config) {
	header(w, "Extension: DIR vs SPDY transport vs PARCEL (the §9 future-work comparison)")
	r := experiments.SPDYComparison(cfg)
	cdfRows(w, "OLT", map[string][]float64{
		"DIR":         r.DIROLT,
		"SPDY":        r.SPDYOLT,
		"PARCEL(IND)": r.ParcelOLT,
	}, "seconds")
	cdfRows(w, "radio energy", map[string][]float64{
		"DIR":         r.DIREnergy,
		"SPDY":        r.SPDYEnergy,
		"PARCEL(IND)": r.ParcelEnergy,
	}, "joules")
	fmt.Fprintln(w, "expectation (§3/§4.3): SPDY transport improves on DIR, but client-side")
	fmt.Fprintln(w, "discovery still bounds it — PARCEL retains its advantage")
}

func losssweep(w io.Writer, cfg experiments.Config) {
	header(w, "Robustness: loss sweep across fault profiles, PARCEL vs DIR")
	schemes := []experiments.Scheme{
		experiments.DIRScheme,
		experiments.ParcelScheme(sched.ConfigONLD),
	}
	points := experiments.LossSweep(cfg, nil, nil, schemes)
	fmt.Fprintf(w, "%-8s %5s %-14s %8s %8s %8s %9s %7s %9s %6s\n",
		"profile", "loss", "scheme", "OLT", "TLT", "energy", "dropped", "rexmit", "rexmitB", "fallbk")
	for _, pt := range points {
		fmt.Fprintf(w, "%-8s %4.0f%% %-14s %7.2fs %7.2fs %7.2fJ %9d %7d %9d %6d\n",
			pt.Profile, 100*pt.LossRate, pt.Scheme,
			pt.MeanOLT.Seconds(), pt.MeanTLT.Seconds(), pt.MeanRadioJ,
			pt.Dropped, pt.Retransmits, pt.RetransmitBytes, pt.Fallbacks)
	}
	fmt.Fprintln(w, "expectation: loss stretches both schemes; PARCEL's single connection and")
	fmt.Fprintln(w, "server-side fetching keep its latency/energy growth below DIR's")
}

func summary(w io.Writer, s experiments.Summary) {
	header(w, "Headline: PARCEL vs DIR")
	fmt.Fprintf(w, "median OLT: DIR %.2f s -> PARCEL %.2f s  (reduction %.1f%%; paper %.1f%%)\n",
		s.DIRMedianOLT, s.ParcelMedianOLT, 100*s.OLTReduction, 100*s.PaperOLTReduction)
	fmt.Fprintf(w, "median radio energy: DIR %.2f J -> PARCEL %.2f J  (reduction %.1f%%; paper %.1f%%)\n",
		s.DIRMedianEnergy, s.ParcelMedianEnergy, 100*s.EnergyReduction, 100*s.PaperEnergyReduction)
}

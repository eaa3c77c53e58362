// Command bench is the repository's one benchmark: five workloads over both
// arms (the virtual-clock simulator and the real TCP proxy), end-to-end
// metrics from an untraced pass, per-layer metrics from a separate traced
// pass, and output verification on every load. BENCHMARK.json declares it;
// README.md says why each workload exists. It claims no gain — it is the
// ruler later changes quote.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// environment heads every report: a number counts only with the machine,
// toolchain and commit it was measured on.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	K          int     `json:"k_clients_and_workers"`
	Go         string  `json:"go"`
	OS         string  `json:"os"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"window_seconds"`
	Link       string  `json:"link"`
	Note       string  `json:"note"`
}

func envHeader(seed int64, seconds float64) environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		K:          clients(),
		Go:         runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
		Kernel:     "unknown",
		Commit:     "unknown",
		Seed:       seed,
		Seconds:    seconds,
		Link:       "loopback, not a real link; tcp_lte shapes it with netem.LTE()",
		Note:       fmt.Sprintf("every plt_* on tcp_* contains the pinned %v proxy quiet period", quietPeriod),
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b strings.Builder
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b.WriteByte(byte(c))
		}
		env.Kernel = b.String()
	}
	// The driver's checkout is not a git repository; "unknown" is the answer there.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// outcome is one workload's run: the contract's four keys plus both metric
// sets (PerLayer is nil when no traced pass ran).
type outcome struct {
	Workload  string                 `json:"workload"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failure   string                 `json:"first_failure,omitempty"`
	Samples   int                    `json:"latency_samples"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	// Spans sums the traced pass's spans by name: where its wall time went.
	Spans map[string]spanTotals `json:"spans,omitempty"`
	// spans are the traced pass's, for -trace-out.
	spans []span
}

// plan says how one workload is run.
type plan struct {
	seed int64
	sz   sizing
	// setups is how many times the workload is set up; setup_s is their
	// median. Only the last (on the real seed) is measured on — the earlier
	// ones use other seeds so that no process-wide cache has seen their
	// pages.
	setups int
	// untraced and traced are the two windows; traced == 0 skips the traced
	// pass and the per-layer metrics.
	untraced, traced time.Duration
}

func runWorkload(spec *benchSpec, name string, p plan) (outcome, error) {
	out := outcome{Workload: name}
	w, err := newWorkload(name, p.sz)
	if err != nil {
		return out, err
	}
	var setups []time.Duration
	for r := p.setups - 1; r >= 0; r-- {
		t0 := time.Now()
		if err := w.setup(p.seed + int64(r)*1_000_003); err != nil {
			return out, fmt.Errorf("%s: setup: %w", name, err)
		}
		setups = append(setups, time.Since(t0))
		if r > 0 {
			w.close()
		}
	}
	defer w.close()

	plain := measured(w, p.untraced, nil)
	out.Attempted, out.Failed, out.Failure = plain.attempted, plain.failed, plain.failure
	out.Samples = len(plain.plt)
	done := plain.attempted - plain.failed
	if done == 0 {
		return out, fmt.Errorf("%s: no load completed: %s", name, plain.failure)
	}
	// Every end-to-end metric is per MB of verified page content: a seed
	// moves the page set's total size by about ±12 %, and per-load figures
	// move with it (see README.md). The per-load figures are in perLayer.
	mb := float64(plain.bodyBytes) / 1e6
	e2e := map[string]float64{
		"setup_s":        medianDuration(setups).Seconds(),
		"mb_per_s":       mb / plain.wall.Seconds(),
		"cpu_ms_per_mb":  ms(plain.cpu) / mb,
		"plt_ms_per_mb":  ms(plain.pltSum) / (float64(plain.pltBytes) / 1e6),
		"wire_kb_per_mb": float64(plain.wireBytes) / 1e3 / mb,
	}
	if out.EndToEnd, err = emit(spec.EndToEnd, e2e, true); err != nil {
		return out, fmt.Errorf("%s: %w", name, err)
	}

	if p.traced > 0 {
		tr := newTracer()
		traced := measured(w, p.traced, tr)
		out.Attempted += traced.attempted
		out.Failed += traced.failed
		if out.Failure == "" {
			out.Failure = traced.failure
		}
		layers := perLayer(plain, traced, tr)
		for k, v := range probeLayers(w.pageSet(), p.seed, tr) {
			layers[k] = v
		}
		if out.PerLayer, err = emit(spec.PerLayer, layers, false); err != nil {
			return out, fmt.Errorf("%s: %w", name, err)
		}
		out.Spans, out.spans = tr.totals(), tr.spans
	}
	out.Correct = out.Failed == 0
	return out, nil
}

// perLayer assembles the traced pass's numbers. The workload-scoped
// end-to-end figures (per-load forms, tails, TTFC) still come from the
// untraced window; counters, spans and runtime deltas come from the traced
// one (as do the simulated results, which are the same bits in every pass),
// and trace.overhead_pct is the throughput the tracing cost.
func perLayer(plain, traced window, tr *tracer) map[string]float64 {
	out := map[string]float64{}
	for k, v := range traced.scoped {
		out[k] = v
	}
	if n := plain.attempted - plain.failed; n > 0 {
		out["loads_per_s"] = float64(n) / plain.wall.Seconds()
		out["cpu_ms_per_load"] = ms(plain.cpu) / float64(n)
		out["wire_kb_per_load"] = float64(plain.wireBytes) / 1e3 / float64(n)
	}
	out["plt_p50_ms"] = median(plain.plt)
	out["fail_share"] = per(float64(plain.failed+traced.failed), plain.attempted+traced.attempted)
	out["ttfc_p50_ms"] = median(plain.ttfc)
	if v, ok := percentile(plain.plt, 95); ok {
		out["plt_p95_ms"] = v
	}
	if v, ok := percentile(plain.ttfc, 95); ok {
		out["ttfc_p95_ms"] = v
	}

	spans := tr.totals()
	out["parcelnet.dial_us"] = spans["parcelnet.dial"].mean(time.Microsecond)
	out["parcelnet.first_byte_ms"] = spans["parcelnet.first_byte"].mean(time.Millisecond)

	done := traced.attempted - traced.failed
	out["runtime.allocs_per_load"] = per(float64(traced.mem.mallocs), done)
	out["runtime.alloc_kb_per_load"] = per(float64(traced.mem.allocBytes)/1e3, done)
	out["runtime.gc_pause_ms"] = ms(traced.mem.gcPause)
	if done > 0 {
		out["trace.overhead_pct"] = 100 * (1 - (float64(done)/traced.wall.Seconds())/out["loads_per_s"])
	}
	return out
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark declaration (workloads, metrics, units, bounds)")
	workload := fs.String("workload", "", "run one workload and print one JSON line last; empty runs all and prints a report")
	seed := fs.Int64("seed", 1, "feeds webgen.Spec.Seed and nothing else")
	seconds := fs.Float64("seconds", 0, "measured window per pass (default run_seconds of the spec)")
	trace := fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced pass")
	traceOut := fs.String("trace-out", "", "write the traced pass's spans to this file")
	repeat := fs.Int("repeat", 1, "run the full set this many times and fail if two runs differ by more than a metric's bound")
	smoke := fs.Bool("smoke", false, "tiny sizing (4 pages, 20 tenants) for a quick check of the plumbing")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	window := time.Duration(*seconds * float64(time.Second))
	sz := fullSizing
	if *smoke {
		sz = smokeSizing()
	}
	// flush writes the traced passes' spans, by workload, to -trace-out.
	flush := func(results ...outcome) int {
		if *traceOut == "" {
			return 0
		}
		byWorkload := map[string][]span{}
		for _, res := range results {
			byWorkload[res.Workload] = append(byWorkload[res.Workload], res.spans...)
		}
		data, err := json.Marshal(byWorkload)
		if err == nil {
			err = os.WriteFile(*traceOut, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}

	if *workload != "" {
		p := plan{seed: *seed, sz: sz, setups: 3, untraced: window}
		if *trace != 0 {
			// Per-layer run: half the window untraced (the reference for
			// trace.overhead_pct), half traced; setup_s is not reported.
			p.setups, p.untraced, p.traced = 1, window/2, window/2
		}
		res, err := runWorkload(spec, *workload, p)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		metrics := res.EndToEnd
		if *trace != 0 {
			metrics = res.PerLayer
		}
		printMetrics(stderr, spec, res)
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, metrics})
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !res.Correct {
			return 1
		}
		return flush(res)
	}

	// Full report: every workload untraced, then traced, -repeat times.
	var sets [][]outcome
	code := 0
	for r := 0; r < *repeat; r++ {
		var set []outcome
		for _, wl := range spec.Workloads {
			res, err := runWorkload(spec, wl.Name, plan{seed: *seed, sz: sz, setups: 3, untraced: window, traced: window})
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			printMetrics(stderr, spec, res)
			if !res.Correct {
				code = 1
			}
			set = append(set, res)
		}
		sets = append(sets, set)
	}
	report := struct {
		Env       environment `json:"env"`
		Runs      [][]outcome `json:"runs"`
		Disagreed []string    `json:"repeat_disagreements,omitempty"`
	}{Env: envHeader(*seed, *seconds), Runs: sets}
	if *repeat > 1 {
		report.Disagreed = compareSets(stderr, spec, sets)
		if len(report.Disagreed) > 0 {
			code = 1
		}
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	if c := flush(sets[len(sets)-1]...); c != 0 {
		return c
	}
	return code
}

// printMetrics writes one workload's metrics by name, with units.
func printMetrics(w io.Writer, spec *benchSpec, res outcome) {
	fmt.Fprintf(w, "== %s: %d loads attempted, %d failed, %d latency samples\n", res.Workload, res.Attempted, res.Failed, res.Samples)
	section := func(title string, declared []metricSpec, values map[string]metricValue) {
		if values == nil {
			return
		}
		fmt.Fprintf(w, "  %s\n", title)
		for _, m := range declared {
			fmt.Fprintf(w, "    %-42s %16.6g %s\n", m.Name, values[m.Name].Value, m.Unit)
		}
	}
	section("end to end (untraced pass)", spec.EndToEnd, res.EndToEnd)
	section("per layer (traced pass; 0 = not exercised by this workload)", spec.PerLayer, res.PerLayer)
	if len(res.Spans) > 0 {
		fmt.Fprintf(w, "  spans (traced pass)                            count         total ms          self ms\n")
		names := make([]string, 0, len(res.Spans))
		for name := range res.Spans {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			t := res.Spans[name]
			fmt.Fprintf(w, "    %-42s %7d %16.3f %16.3f\n", name, t.Count, ms(t.Total), ms(t.Self))
		}
	}
	if !res.Correct {
		fmt.Fprintf(w, "  FAILED verification: %d of %d loads: %s\n", res.Failed, res.Attempted, res.Failure)
	}
}

// compareSets is the repeatability self-check: between any two runs of the
// full set, no end-to-end metric may be worse than the other's by more than
// its bound, and the simulated results may not differ at all. It prints the
// spread of every metric so the bounds can be tightened with evidence.
func compareSets(w io.Writer, spec *benchSpec, sets [][]outcome) []string {
	var bad []string
	fmt.Fprintln(w, "== repeatability: spread = (max-min)/min over the runs")
	for wi, first := range sets[0] {
		check := func(name string, bound float64, values func(outcome) map[string]metricValue) {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, set := range sets {
				v := values(set[wi])[name].Value
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			if lo == 0 && hi == 0 {
				return // not a metric of this workload
			}
			spread := 0.0
			if lo != 0 {
				spread = (hi - lo) / lo
			}
			verdict := "ok"
			if (lo == 0 && hi != 0) || spread > bound {
				verdict = "DIFFERS"
				bad = append(bad, fmt.Sprintf("%s %s: %g vs %g (bound %g)", first.Workload, name, lo, hi, bound))
			}
			fmt.Fprintf(w, "  %-10s %-24s spread %8.4f%%  bound %6.2f%%  %s\n", first.Workload, name, 100*spread, 100*bound, verdict)
		}
		for _, m := range spec.EndToEnd {
			if m.Name == "setup_s" {
				// A later run in this process finds the seed's pages, programs
				// and DOMs already in the process-wide memos; set-up times
				// compare only across processes.
				continue
			}
			check(m.Name, m.Bound, func(o outcome) map[string]metricValue { return o.EndToEnd })
		}
		for _, m := range spec.PerLayer {
			if strings.HasPrefix(m.Name, "sim_") || strings.HasSuffix(m.Name, "_reduction_pct") {
				check(m.Name, 0, func(o outcome) map[string]metricValue { return o.PerLayer })
			}
		}
	}
	return bad
}

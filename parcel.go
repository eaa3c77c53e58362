// Package parcel is the public API of the PARCEL reproduction: a
// proxy-assisted mobile web-browsing system (Sivakumar et al., CoNEXT 2014)
// together with every substrate its evaluation needs — a discrete-event LTE
// network simulator, an LTE RRC radio-energy model, a from-scratch browsing
// engine (HTML/CSS parsing and a mini-JS interpreter), the DIR, SPDY and
// cloud-browser baselines, a calibrated synthetic page-set generator, and
// the experiment harnesses that regenerate every table and figure of the
// paper. RunDIR, RunSPDY, RunCB and RunPARCEL start their arm the way every
// sweep and figure does, through one scheme runner.
//
// # Quick start
//
//	pages := parcel.GeneratePages(1, 1)
//	topo := parcel.BuildTopology(pages[0], parcel.DefaultNetwork())
//	run := parcel.RunPARCEL(topo, parcel.IND())
//	fmt.Printf("OLT %v, radio %.2f J\n", run.OLT, run.RadioJ)
//
// Compare against the traditional browser on a fresh topology:
//
//	topo2 := parcel.BuildTopology(pages[0], parcel.DefaultNetwork())
//	dir := parcel.RunDIR(topo2)
//
// The experiment entry points (Fig3 … Fig11, Headline, Model) reproduce the
// paper's evaluation; cmd/parcel-bench renders them as tables.
package parcel

import (
	"time"

	"github.com/parcel-go/parcel/internal/core"
	"github.com/parcel-go/parcel/internal/experiments"
	"github.com/parcel-go/parcel/internal/metrics"
	"github.com/parcel-go/parcel/internal/radio"
	"github.com/parcel-go/parcel/internal/scenario"
	"github.com/parcel-go/parcel/internal/sched"
	"github.com/parcel-go/parcel/internal/webgen"
)

// Page is one synthetic evaluation page: its objects, domains and metadata.
type Page = webgen.Page

// NetworkParams is what an experiment varies of the paper-calibrated
// topology: the seed, LTE jitter, the wire-line access of Figure 3, the
// proxy↔origin delay (§8.3), heterogeneous origins (§8.4) and injected
// faults. The zero value of each field is the calibrated setting, so a
// caller sets only what it changes.
type NetworkParams = scenario.Params

// Topology is a built simulation network for one page.
type Topology = scenario.Topology

// PageRun is the measured outcome of loading one page with one scheme.
type PageRun = metrics.PageRun

// Schedule is a PARCEL bundle-transfer schedule (IND / PARCEL(X) / ONLD).
type Schedule = sched.Config

// RadioParams is the LTE RRC state-machine and power model.
type RadioParams = radio.Params

// RadioReport is the outcome of an RRC/energy simulation over a trace.
type RadioReport = radio.Report

// AnalyticModel is the paper's §6 closed-form latency/energy model.
type AnalyticModel = sched.Model

// ProxyConfig tunes the PARCEL proxy: schedule, completion quiet period,
// shared cache and origin-fetch resilience. The proxy's CPU profile, replay
// rewrite and connection pools are fixed.
type ProxyConfig = core.ProxyConfig

// ClientConfig tunes the PARCEL client browser: only the replay rewrite. The
// device (mobile CPU profile, user agent, screen) is fixed.
type ClientConfig = core.ClientConfig

// ExperimentConfig controls the evaluation sweeps: seed, page count, rounds,
// worker-pool width and the topology overrides (LTE jitter among them, in
// Scenario.LTEJitter).
type ExperimentConfig = experiments.Config

// GeneratePages deterministically generates n evaluation pages calibrated to
// the paper's page statistics (§7.2). n <= 0 yields the paper's 34.
func GeneratePages(seed int64, n int) []Page {
	return webgen.Generate(webgen.Spec{Seed: seed, NumPages: n})
}

// InteractivePage returns the gallery page used for interaction experiments.
func InteractivePage(pages []Page) Page { return webgen.InteractivePage(pages) }

// DefaultNetwork returns the paper-calibrated topology parameters: 78 ms LTE
// RTT, ≈6.75 Mbps downlink, 20 ms proxy↔origin RTT.
func DefaultNetwork() NetworkParams { return scenario.DefaultParams() }

// BuildTopology wires the simulation network for one page. Each run needs a
// fresh topology (the paper likewise flushes caches between runs, §7.3).
func BuildTopology(page Page, params NetworkParams) *Topology {
	return scenario.Build(page, params)
}

// IND returns the push-each-object schedule (Figure 5b).
func IND() Schedule { return sched.ConfigIND }

// Threshold returns the PARCEL(X) schedule with an X-byte bundle threshold
// (Figure 5d).
func Threshold(bytes int) Schedule {
	return sched.Config{Policy: sched.Threshold, ThresholdBytes: bytes}
}

// ONLD returns the single-batch-at-onload schedule (Figure 5c).
func ONLD() Schedule { return sched.ConfigONLD }

// DefaultProxyConfig returns the PARCEL proxy defaults (IND schedule, 3 s
// completion quiet period).
func DefaultProxyConfig() ProxyConfig { return core.DefaultProxyConfig() }

// DefaultClientConfig returns the PARCEL client defaults (replay rewrite
// enabled).
func DefaultClientConfig() ClientConfig { return core.DefaultClientConfig() }

// RunPARCEL loads the topology's page through a PARCEL proxy with the given
// schedule and returns the client-side measurements.
func RunPARCEL(topo *Topology, schedule Schedule) PageRun {
	return experiments.ParcelScheme(schedule).Run(topo)
}

// RunDIR loads the topology's page with the traditional mobile browser
// baseline (per-object HTTP over the cellular link, 6 connections/domain).
func RunDIR(topo *Topology) PageRun {
	return experiments.DIRScheme.Run(topo)
}

// RunCB loads the topology's page with the cloud-heavy browser baseline
// (cloud-side JS, per-interaction snapshots, §8.2).
func RunCB(topo *Topology) PageRun {
	return experiments.CBScheme.Run(topo)
}

// RunSPDY loads the topology's page with the SPDY-transport baseline: one
// multiplexed connection per domain, client-side object identification
// (Table 1's SPDY-proxies column).
func RunSPDY(topo *Topology) PageRun {
	return experiments.SPDYScheme.Run(topo)
}

// NewParcelSession starts a PARCEL proxy and client on the topology without
// running it, for callers that drive interactions (see examples).
func NewParcelSession(topo *Topology, proxyCfg ProxyConfig, clientCfg ClientConfig) *core.Client {
	core.StartProxy(topo, proxyCfg)
	return core.NewClient(topo, clientCfg)
}

// DefaultLTERadio returns the calibrated LTE RRC parameters (α ≈ 0.74).
func DefaultLTERadio() RadioParams { return radio.DefaultLTE() }

// SimulateRadio runs the RRC state machine over device activity and returns
// occupancy and energy (the ARO-equivalent, §7.1).
func SimulateRadio(activities []radio.Activity, p RadioParams, horizon time.Duration) RadioReport {
	return radio.Simulate(activities, p, horizon)
}

// OptimalBundleSize evaluates Eq. 1: b* = α·sqrt(s·B), for download speed s
// (bytes/s) and page size B (bytes).
func OptimalBundleSize(p RadioParams, speedBps, pageBytes float64) float64 {
	m := sched.Model{Radio: p, SpeedBps: speedBps, PageBytes: pageBytes}
	return m.OptimalBundleSize()
}

// DefaultExperiments returns the standard evaluation configuration
// (34 pages, 5 rounds, LTE jitter).
func DefaultExperiments() ExperimentConfig { return experiments.DefaultConfig() }

// Headline computes the abstract-level result: median OLT and radio-energy
// reductions of PARCEL vs DIR (paper: 49.6% and 65%).
func Headline(cfg ExperimentConfig) experiments.Summary { return experiments.Headline(cfg) }

package experiments

import (
	"strconv"
	"strings"
	"time"

	"github.com/parcel-go/parcel/internal/energy"
	"github.com/parcel-go/parcel/internal/radio"
	"github.com/parcel-go/parcel/internal/runner"
	"github.com/parcel-go/parcel/internal/scenario"
	"github.com/parcel-go/parcel/internal/sched"
	"github.com/parcel-go/parcel/internal/webgen"
)

// SessionPoint is one bar group of Figure 8: cumulative energy up to an
// event (FD, C1..C4).
type SessionPoint struct {
	Label     string
	At        time.Duration // when the event's effects settle
	CumRadioJ float64
	CumTotalJ float64 // radio + CPU (screen excluded, §8.2)
}

// SessionResult is one scheme's Figure 8 series.
type SessionResult struct {
	Scheme string
	Points []SessionPoint
}

// Fig8Result holds the full interactive-session comparison.
type Fig8Result struct {
	Page    string
	Clicks  int
	Results []SessionResult
}

// Fig8 reproduces the §8.2 session experiment: the interactive (ebay-style)
// page is loaded once (FD), then the user clicks through the product gallery
// once per minute (C1..C4). PARCEL and DIR handle clicks locally; CB
// round-trips each one to the cloud.
func Fig8(cfg Config) Fig8Result {
	cfg = cfg.withDefaults()
	page := webgen.InteractivePage(cfg.PageSet())
	const clicks = 4
	const clickInterval = 60 * time.Second
	dev := energy.DefaultDevice()

	// The three scheme sessions are independent topologies: run them as
	// parallel tasks, slotted so the result order stays PARCEL, DIR, CB.
	schemes := []Scheme{{Name: "PARCEL", Sched: sched.ConfigIND}, DIRScheme, CBScheme}
	out := Fig8Result{Page: page.Name, Clicks: clicks}
	out.Results = runner.Map(cfg.Parallelism, len(schemes), func(i int) SessionResult {
		return runSession(page, schemes[i], cfg, clicks, clickInterval, dev)
	})
	return out
}

// sessionEnergy converts a client trace + CPU history into cumulative points
// evaluated at the given event-settle times.
func sessionEnergy(scheme string, topo *scenario.Topology, cpuAt func(time.Duration) time.Duration, eventTimes []time.Duration, labels []string, dev energy.DeviceParams) SessionResult {
	last, _ := topo.ClientTrace.Last()
	horizon := last + time.Second
	rep := radio.Simulate(topo.ClientTrace.Activities(), radio.DefaultLTE(), horizon)
	res := SessionResult{Scheme: scheme}
	for i, t := range eventTimes {
		res.Points = append(res.Points, SessionPoint{
			Label:     labels[i],
			At:        t,
			CumRadioJ: rep.EnergyUpTo(t),
			CumTotalJ: rep.EnergyUpTo(t) + dev.CPUEnergy(cpuAt(t)),
		})
	}
	return res
}

// sessionLabels returns FD, C1..Cn.
func sessionLabels(clicks int) []string {
	labels := []string{"FD"}
	for i := 1; i <= clicks; i++ {
		labels = append(labels, "C"+strconv.Itoa(i))
	}
	return labels
}

// cpuSampler records a monotone (time, cpuActive) history and interpolates
// step-wise.
type cpuSampler struct {
	times []time.Duration
	cpu   []time.Duration
}

func (c *cpuSampler) record(at time.Duration, active time.Duration) {
	c.times = append(c.times, at)
	c.cpu = append(c.cpu, active)
}

func (c *cpuSampler) at(t time.Duration) time.Duration {
	var out time.Duration
	for i, ts := range c.times {
		if ts <= t {
			out = c.cpu[i]
		}
	}
	return out
}

// runSession loads the page with s (FD), then clicks once per interval,
// sampling the client's CPU after each click settles.
func runSession(page webgen.Page, s Scheme, cfg Config, clicks int, interval time.Duration, dev energy.DeviceParams) SessionResult {
	topo, a := s.load(page, cfg, cfg.Seed, nil)
	var sampler cpuSampler
	fd := topo.Sim.Now()
	sampler.record(fd, a.cpuActive())
	eventTimes := []time.Duration{fd + 5*time.Second}
	for i := 1; i <= clicks; i++ {
		at := fd + time.Duration(i)*interval
		topo.Sim.RunUntil(at)
		a.click()
		topo.Sim.Run()
		sampler.record(topo.Sim.Now(), a.cpuActive())
		eventTimes = append(eventTimes, at+5*time.Second)
	}
	return sessionEnergy(s.Name, topo, sampler.at, eventTimes, sessionLabels(clicks), dev)
}

// SchemeNamed fetches one scheme's series from a Fig8Result.
func (r Fig8Result) SchemeNamed(name string) (SessionResult, bool) {
	for _, s := range r.Results {
		if strings.EqualFold(s.Scheme, name) {
			return s, true
		}
	}
	return SessionResult{}, false
}

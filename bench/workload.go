package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"github.com/parcel-go/parcel/internal/netem"
	"github.com/parcel-go/parcel/internal/webgen"
)

// clients returns K, the number of client goroutines/connections and sim
// workers every workload uses: min(nproc, 4), never more, so the benchmark
// measures the program and not the Go scheduler.
func clients() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// sizing scales every workload; the smoke sizing exists for the tests.
type sizing struct {
	pages   int // page-set size of sim_sweep and tcp_*
	tenants int // sim_fleet fleet size
	fleetPg int // sim_fleet distinct pages
	// link shapes tcp_lte's client connections.
	link netem.Params
}

var fullSizing = sizing{pages: 34, tenants: 200, fleetPg: 34, link: netem.LTE()}

// smokeSizing keeps LTE's delay but not its rate: a 4 MB page at 6.75 Mbps
// alone would take the smoke run past five seconds.
func smokeSizing() sizing {
	link := netem.LTE()
	link.Bps *= 20
	return sizing{pages: 4, tenants: 20, fleetPg: 2, link: link}
}

// window is what one measured window of one workload saw. A "load" is one
// page load: one simulated PageRun or session, or one TCP session.
type window struct {
	wall, cpu time.Duration
	mem       memDelta

	attempted, failed int
	// failure is the first verification failure, for the report.
	failure string

	// plt and ttfc are per-load page-load time and time to first critical
	// object in ms, over verified loads: wall clock on tcp_*, simulated time
	// on sim_*.
	plt, ttfc []float64
	// pltSum is the page-load time of the loads whose bodies pltBytes sums
	// (on sim_sweep the PARCEL(IND) loads only, elsewhere every load).
	pltSum   time.Duration
	pltBytes int64
	// wireBytes crossed the client's access link downstream; bodyBytes are
	// the object bodies those loads delivered.
	wireBytes, bodyBytes int64

	// scoped holds the metrics only this workload (or this arm) defines,
	// keyed by their declared names.
	scoped map[string]float64
}

func (w *window) fail(format string, args ...any) {
	w.failed++
	if w.failure == "" {
		w.failure = fmt.Sprintf(format, args...)
	}
}

// workload is one set of inputs the benchmark runs.
type workload interface {
	// setup makes the inputs from seed, starts whatever serves them and runs
	// the untimed warm-up pass.
	setup(seed int64) error
	// measure runs loads for at least d. tr is nil on the untraced pass.
	measure(d time.Duration, tr *tracer) window
	// pageSet is what the per-layer probes run over.
	pageSet() []webgen.Page
	// close stops everything setup started and waits for it.
	close()
}

func newWorkload(name string, sz sizing) (workload, error) {
	switch name {
	case "sim_sweep":
		return &simSweep{sz: sz}, nil
	case "sim_fleet":
		return &simFleet{sz: sz}, nil
	case "tcp_warm":
		return &tcpWorkload{sz: sz, cacheBytes: 256 << 20}, nil
	case "tcp_cold":
		// 8 MB against a page set several times that: every pass evicts
		// what the next one needs.
		return &tcpWorkload{sz: sz, cacheBytes: 8 << 20}, nil
	case "tcp_lte":
		return &tcpWorkload{sz: sz, cacheBytes: 256 << 20, lte: true}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// measured wraps w.measure with the process-wide readings every workload
// shares: wall and CPU time, allocator deltas and, when traced, the heap and
// goroutine peaks.
func measured(w workload, d time.Duration, tr *tracer) window {
	runtime.GC()
	var peaks *peakSampler
	if tr != nil {
		peaks = startPeakSampler()
	}
	mem0, cpu0, t0 := memNow(), cpuTime(), time.Now()
	win := w.measure(d, tr)
	win.wall, win.cpu, win.mem = time.Since(t0), cpuTime()-cpu0, memSince(mem0)
	if peaks != nil {
		heap, gor := peaks.stop()
		win.scoped["runtime.heap_peak_mb"] = float64(heap) / 1e6
		win.scoped["runtime.goroutines_peak"] = float64(gor)
	}
	return win
}

// peakSampler polls the runtime's cheap (no stop-the-world) metrics for the
// live heap and goroutine count.
type peakSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	heap uint64
	gor  uint64
}

func startPeakSampler() *peakSampler {
	p := &peakSampler{done: make(chan struct{})}
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/sched/goroutines:goroutines"},
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(samples)
			if v := samples[0].Value.Uint64(); v > p.heap {
				p.heap = v
			}
			if v := samples[1].Value.Uint64(); v > p.gor {
				p.gor = v
			}
			select {
			case <-p.done:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

func (p *peakSampler) stop() (heapBytes, goroutines uint64) {
	close(p.done)
	p.wg.Wait()
	return p.heap, p.gor
}

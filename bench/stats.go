package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"

	"github.com/parcel-go/parcel/internal/stats"
)

// tailMargin is how many samples must lie beyond a percentile before it is
// reported: p95 therefore needs 200 samples, and a 34-sample workload
// reports p50 only.
const tailMargin = 10

// percentile returns the p-th percentile of xs (the repo's own
// stats.Percentile, so numbers agree with the committed BENCH files) and
// whether the sample supports it: at least tailMargin samples on the far
// side of the percentile.
func percentile(xs []float64, p float64) (float64, bool) {
	if beyond := float64(len(xs)) * (100 - p) / 100; beyond < tailMargin {
		return 0, false
	}
	return stats.Percentile(xs, p), true
}

// median is the p50 of any non-empty sample (used where the sample is a
// fixed set, not a tail estimate), 0 for an empty one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Median(xs)
}

// medianDuration returns the median of ds.
func medianDuration(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memDelta is what the allocator and collector did over one window.
type memDelta struct {
	mallocs, allocBytes uint64
	gcPause             time.Duration
}

func memNow() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := memNow()
	return memDelta{
		mallocs:    after.Mallocs - before.Mallocs,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		gcPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
}

// per divides, returning 0 for an empty denominator.
func per(x float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return x / float64(n)
}

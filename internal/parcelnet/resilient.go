package parcelnet

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/parcel-go/parcel/internal/httpsim"
	"github.com/parcel-go/parcel/internal/objcache"
	"github.com/parcel-go/parcel/internal/resilience"
)

// resilientFetcher wraps the proxy's shared OriginFetcher in the
// internal/resilience discipline: a per-attempt deadline (so a stalled origin
// occupies a connection for Policy.Timeout, not the transport's 30 s
// backstop), a jittered-backoff retry budget, and a per-origin circuit
// breaker so one sick domain fails fast instead of stacking every session's
// retries onto it.
type resilientFetcher struct {
	fetch   attemptFunc
	group   *resilience.Group
	started time.Time

	mu  sync.Mutex // guards rng
	rng *rand.Rand

	retries atomic.Int64
}

// attemptFunc is one origin attempt: OriginFetcher.FetchValidatedCtx.
type attemptFunc func(ctx context.Context, url string) (body []byte, ct string, status int, validator string, err error)

func newResilientFetcher(fetch attemptFunc, policy resilience.Policy) *resilientFetcher {
	return &resilientFetcher{
		fetch:   fetch,
		group:   resilience.NewGroup(policy),
		started: time.Now(),
		rng:     rand.New(rand.NewSource(1)),
	}
}

// now is the fetcher's monotonic clock for breaker bookkeeping.
func (r *resilientFetcher) now() time.Duration { return time.Since(r.started) }

// do fetches url by driving one resilience.Attempt with blocking calls: an
// Issue is a fetch under a context deadline, a Wait is a sleep. Terminal
// failures — transport errors or 5xx past the retry budget, or a refusal by
// an open breaker — return an error, which is what lets the cache layer above
// serve stale. onRetry is invoked once per re-attempt so the driving session
// can be charged for them.
func (r *resilientFetcher) do(url string, onRetry func()) (body []byte, ct string, status int, validator string, err error) {
	domain, _ := httpsim.SplitURL(url)
	try := r.group.Attempt(domain)
	for step := try.Start(r.now()); ; {
		switch step.Action {
		case resilience.Issue:
			if try.Issued() > 1 {
				onRetry()
				r.retries.Add(1)
			}
			ctx, cancel := context.WithTimeout(context.Background(), step.After)
			body, ct, status, validator, err = r.fetch(ctx, url)
			cancel()
			r.mu.Lock()
			step = try.Responded(r.now(), status, err, r.rng)
			r.mu.Unlock()
		case resilience.Wait:
			time.Sleep(step.After)
			step = try.Start(r.now())
		case resilience.Done:
			return body, ct, status, validator, nil
		case resilience.Refused:
			return nil, "", 0, "", fmt.Errorf("fetch %s: %w", url, resilience.ErrOpen)
		default: // resilience.Failed
			if err == nil {
				err = fmt.Errorf("fetch %s: origin status %d after %d attempts", url, status, try.Issued())
			}
			return nil, "", 0, "", err
		}
	}
}

// ResilienceStats aggregates the resilient fetch path's counters.
type ResilienceStats struct {
	// Retries is how many re-attempts the fetch path issued.
	Retries int64
	// BreakerOpens is how many times a per-origin breaker opened.
	BreakerOpens int64
	// BreakerFastFails is how many requests failed fast on an open breaker.
	BreakerFastFails int64
}

// ResilienceStats returns the proxy's resilient-fetch counters.
func (p *Proxy) ResilienceStats() ResilienceStats {
	return ResilienceStats{
		Retries:          p.res.retries.Load(),
		BreakerOpens:     p.res.group.Opens(),
		BreakerFastFails: p.res.group.FastFails(),
	}
}

// fetchURL is the session's object source, and its one origin-fetch path:
// breaker + retries + deadlines around the origin, behind the shared cache's
// single-flight de-duplication, serve-stale-on-error and negative caching.
// Failures return an error; the crawler converts it into a 502 object so the
// session completes (degraded, not dead).
func (s *session) fetchURL(url string) ([]byte, string, int, error) {
	p := s.proxy
	// paid: this session's own origin fetch ran and succeeded. It alone pays
	// the origin bytes; single-flight joiners get the object for free.
	paid := false
	fetch := func() (objcache.Object, error) {
		body, ct, status, validator, err := p.res.do(url, func() {
			s.mu.Lock()
			s.page.OriginRetries++
			s.mu.Unlock()
		})
		if err != nil {
			return objcache.Object{}, err
		}
		paid = true
		s.mu.Lock()
		s.page.OriginBytes += int64(len(body))
		s.mu.Unlock()
		return objcache.Object{URL: url, ContentType: ct, Status: status, Validator: validator, Body: body}, nil
	}
	obj, outcome, err := p.cache.GetOrFetchStale(url, p.res.now(), fetch)
	s.mu.Lock()
	s.page.Fetch(err == nil, paid, outcome == objcache.OutcomeStale)
	s.mu.Unlock()
	if err != nil {
		return nil, "", 0, err
	}
	return obj.Body, obj.ContentType, obj.Status, nil
}

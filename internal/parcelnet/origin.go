package parcelnet

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/parcel-go/parcel/internal/httpsim"
)

// Origin is a real HTTP server that serves a replay store. All logical
// domains of an archive resolve to this one listener: the logical URL is
// reconstructed from the request's Host header, exactly how the paper's
// web-page-replay server answers for every recorded domain (§7.3).
type Origin struct {
	store   httpsim.Store
	srv     *http.Server
	ln      net.Listener
	started time.Time

	// requests counts served requests (atomic: the server handles
	// concurrent crawler fetches).
	requests atomic.Int64

	// mu guards the fault plan, its private RNG and what it injected: the
	// server decides for concurrent requests.
	mu     sync.Mutex
	faults httpsim.OriginFaults
	rng    *rand.Rand
	stats  httpsim.OriginFaultStats
}

// Requests returns how many requests the origin has served.
func (o *Origin) Requests() int64 { return o.requests.Load() }

// SetFaults arms fault injection (errors, stalls, truncated bodies, flaps)
// with a private RNG seeded by seed: the same seed and request order
// reproduce the same fault sequence. Call before serving traffic; pass the
// zero value to disarm.
func (o *Origin) SetFaults(f httpsim.OriginFaults, seed int64) error {
	f, err := f.Armed()
	if err != nil {
		return err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.faults, o.rng = f, rand.New(rand.NewSource(seed))
	return nil
}

// FaultStats returns the faults injected so far.
func (o *Origin) FaultStats() httpsim.OriginFaultStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.stats
}

// decide rolls the fault plan for one request on the origin's wall clock and
// returns the stall duration alongside.
func (o *Origin) decide() (httpsim.Fault, time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.faults.Decide(time.Since(o.started), o.rng, &o.stats), o.faults.StallFor
}

// StartOrigin serves store on addr ("127.0.0.1:0" for an ephemeral port).
func StartOrigin(addr string, store httpsim.Store) (*Origin, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	o := &Origin{store: store, ln: ln, started: time.Now()}
	o.srv = &http.Server{Handler: http.HandlerFunc(o.handle), ReadHeaderTimeout: 5 * time.Second}
	go o.srv.Serve(ln)
	return o, nil
}

// Addr returns the listener address.
func (o *Origin) Addr() string { return o.ln.Addr().String() }

// Close shuts the server down.
func (o *Origin) Close() error { return o.srv.Close() }

func (o *Origin) handle(w http.ResponseWriter, r *http.Request) {
	o.requests.Add(1)
	fault, stall := o.decide()
	if fault == httpsim.FaultError {
		http.Error(w, "origin unavailable", http.StatusServiceUnavailable)
		return
	}
	if fault == httpsim.FaultStall {
		// A slow origin, not a dead one: the response arrives after the stall,
		// pinning the fetcher's connection (and, without the resilient fetch
		// path's per-attempt deadline, the session waiting on it).
		time.Sleep(stall)
	}
	logical := "http://" + r.Host + r.URL.RequestURI()
	obj, ok := o.store.Get(logical)
	if !ok {
		http.NotFound(w, r)
		return
	}
	if obj.ContentType != "" {
		w.Header().Set("Content-Type", obj.ContentType)
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(obj.Body)))
	w.Header().Set("ETag", `"`+obj.ETag()+`"`)
	status := obj.Status
	if status == 0 {
		status = http.StatusOK
	}
	w.WriteHeader(status)
	if fault == httpsim.FaultPartial {
		// Truncated transfer: advertise the full length, deliver half, then
		// abort the connection so the fetcher sees a real io error instead of
		// a clean short body.
		w.Write(obj.Body[:len(obj.Body)/2])
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	}
	w.Write(obj.Body)
}

// OriginFetcher fetches logical URLs (http://domain/path) by connecting to a
// fixed origin address and carrying the logical domain in the Host header —
// the real-network stand-in for DNS resolution onto the replay server.
type OriginFetcher struct {
	OriginAddr string
	Client     *http.Client
}

// NewOriginFetcher builds a fetcher against the origin at addr, sized for one
// session (the paper's six connections per domain).
func NewOriginFetcher(addr string) *OriginFetcher { return NewOriginFetcherN(addr, 6) }

// NewOriginFetcherN builds a fetcher with an explicit connection budget. The
// multi-tenant proxy shares one fetcher across every session, so its pool
// must be provisioned for the fleet, not one page: all logical domains
// resolve to the single origin address, and http.Transport pools by that
// address, so maxConns bounds the proxy↔origin connection count globally.
func NewOriginFetcherN(addr string, maxConns int) *OriginFetcher {
	return &OriginFetcher{
		OriginAddr: addr,
		Client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: maxConns,
				MaxConnsPerHost:     maxConns,
			},
		},
	}
}

// BodyValidator derives the content digest the origin serves as its ETag: the
// canonical content-hash validator shared with the simulation arm, so "same
// validator ⇒ same bytes" holds across both arms' caches.
func BodyValidator(body []byte) string {
	return httpsim.ContentValidator(body)
}

// Fetch retrieves a logical URL, returning the body and content type.
func (f *OriginFetcher) Fetch(logicalURL string) (body []byte, contentType string, status int, err error) {
	body, contentType, status, _, err = f.FetchValidatedCtx(context.Background(), logicalURL)
	return body, contentType, status, err
}

// FetchValidatedCtx is Fetch plus the origin's validator (the ETag, unquoted; a
// content digest of the body when the origin sends none, so the validator is
// never empty for a successful response), under a caller context: the
// resilient fetch path uses the context deadline as its per-attempt timeout,
// well under the Client's own 30 s backstop.
//
// The body is read once, into a buffer sized from the response's
// Content-Length. The length is only a hint: it is clamped to [0, maxFrame],
// so a lying header reserves no more than one frame, and the body is read to
// EOF whatever it said, so an absent or understated length costs buffer
// growth, not bytes. A body that ends before its stated length is an error.
func (f *OriginFetcher) FetchValidatedCtx(ctx context.Context, logicalURL string) (body []byte, contentType string, status int, validator string, err error) {
	domain, path := httpsim.SplitURL(logicalURL)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+f.OriginAddr+path, nil)
	if err != nil {
		return nil, "", 0, "", err
	}
	req.Host = domain
	resp, err := f.Client.Do(req)
	if err != nil {
		return nil, "", 0, "", fmt.Errorf("fetch %s: %w", logicalURL, err)
	}
	defer resp.Body.Close()
	// ReadFrom wants bytes.MinRead spare before every Read, the one that
	// returns EOF included: with that much past the hint, an honest length
	// never regrows the buffer.
	hint := min(max(resp.ContentLength, 0), maxFrame)
	buf := bytes.NewBuffer(make([]byte, 0, hint+bytes.MinRead))
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, "", 0, "", fmt.Errorf("fetch %s: %w", logicalURL, err)
	}
	data := buf.Bytes()
	validator = strings.Trim(resp.Header.Get("ETag"), `"`)
	if validator == "" {
		validator = BodyValidator(data)
	}
	return data, resp.Header.Get("Content-Type"), resp.StatusCode, validator, nil
}

package parcelnet

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/parcel-go/parcel/internal/dnssim"
	"github.com/parcel-go/parcel/internal/eventsim"
	"github.com/parcel-go/parcel/internal/httpsim"
	"github.com/parcel-go/parcel/internal/leakcheck"
	"github.com/parcel-go/parcel/internal/simnet"
)

func faultyOrigin(t *testing.T, cfg httpsim.OriginFaults, seed int64) (*Origin, *OriginFetcher) {
	t.Helper()
	store := httpsim.MapStore{
		"http://site.example/": {URL: "http://site.example/", ContentType: "text/html", Body: []byte("<html>0123456789abcdef</html>")},
	}
	o, err := StartOrigin("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.SetFaults(cfg, seed); err != nil {
		t.Fatal(err)
	}
	return o, NewOriginFetcher(o.Addr())
}

func TestOriginFaultErrorServes503(t *testing.T) {
	defer leakcheck.Check(t)()
	o, f := faultyOrigin(t, httpsim.OriginFaults{ErrorRate: 1}, 1)
	defer o.Close()
	_, _, status, _, err := f.FetchValidatedCtx(context.Background(), "http://site.example/")
	if err != nil {
		t.Fatalf("503 must be a response, not a transport error: %v", err)
	}
	if status != 503 {
		t.Fatalf("status = %d, want 503", status)
	}
	if s := o.FaultStats(); s.Errors != 1 {
		t.Fatalf("stats = %+v", s)
	}
	f.Client.CloseIdleConnections()
}

func TestOriginFaultPartialIsTransportError(t *testing.T) {
	defer leakcheck.Check(t)()
	o, f := faultyOrigin(t, httpsim.OriginFaults{PartialRate: 1}, 1)
	defer o.Close()
	_, _, _, _, err := f.FetchValidatedCtx(context.Background(), "http://site.example/")
	if err == nil {
		t.Fatal("truncated body read did not error")
	}
	if s := o.FaultStats(); s.Partials != 1 {
		t.Fatalf("stats = %+v", s)
	}
	f.Client.CloseIdleConnections()
}

func TestOriginFaultStallDelays(t *testing.T) {
	defer leakcheck.Check(t)()
	stall := 300 * time.Millisecond
	o, f := faultyOrigin(t, httpsim.OriginFaults{StallRate: 1, StallFor: stall}, 1)
	defer o.Close()
	t0 := time.Now()
	_, _, status, _, err := f.FetchValidatedCtx(context.Background(), "http://site.example/")
	if err != nil || status != 200 {
		t.Fatalf("stalled fetch: status %d, err %v", status, err)
	}
	if since := time.Since(t0); since < stall {
		t.Fatalf("fetch returned in %v, want >= %v", since, stall)
	}
	if s := o.FaultStats(); s.Stalls != 1 {
		t.Fatalf("stats = %+v", s)
	}
	f.Client.CloseIdleConnections()
}

func TestOriginServesPinnedValidator(t *testing.T) {
	defer leakcheck.Check(t)()
	store := httpsim.MapStore{
		"http://site.example/": {URL: "http://site.example/", ContentType: "text/html", Body: []byte("body"), Validator: "etag-pinned"},
	}
	o, err := StartOrigin("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	f := NewOriginFetcher(o.Addr())
	body, _, status, validator, err := f.FetchValidatedCtx(context.Background(), "http://site.example/")
	if err != nil || status != 200 {
		t.Fatalf("fetch: status %d, err %v", status, err)
	}
	if validator != "etag-pinned" {
		t.Fatalf("validator = %q, want pinned", validator)
	}
	if string(body) != "body" {
		t.Fatalf("body = %q", body)
	}
	f.Client.CloseIdleConnections()
}

func TestOriginDerivedValidatorMatchesSimArm(t *testing.T) {
	defer leakcheck.Check(t)()
	body := []byte("<html>shared-canonical-hash</html>")
	store := httpsim.MapStore{
		"http://site.example/": {URL: "http://site.example/", ContentType: "text/html", Body: body},
	}
	o, err := StartOrigin("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	f := NewOriginFetcher(o.Addr())
	_, _, _, validator, err := f.FetchValidatedCtx(context.Background(), "http://site.example/")
	if err != nil {
		t.Fatal(err)
	}
	if want := httpsim.ContentValidator(body); validator != want {
		t.Fatalf("real-arm validator %q != sim-arm validator %q", validator, want)
	}
	if !strings.EqualFold(validator, BodyValidator(body)) {
		t.Fatalf("BodyValidator drifted from ContentValidator")
	}
	f.Client.CloseIdleConnections()
}

// TestOriginFaultsArmsAgree drives one fault plan from one seed through both
// origins, 40 sequential requests each, and holds each arm's outcome classes
// to a reference loop over the shared Decide: the TCP origin on the wall
// clock (200 / 503 / delayed / io error) and the simulated server on the
// virtual clock (200 / 503 / delayed / 502), where it is the only RNG
// consumer.
func TestOriginFaultsArmsAgree(t *testing.T) {
	defer leakcheck.Check(t)()
	const (
		seed = 11
		n    = 40
	)
	plan := httpsim.OriginFaults{ErrorRate: 0.2, StallRate: 0.2, PartialRate: 0.2, StallFor: 200 * time.Millisecond}

	rng := rand.New(rand.NewSource(seed))
	var st httpsim.OriginFaultStats
	want := make([]httpsim.Fault, n)
	for i := range want {
		want[i] = plan.Decide(0, rng, &st)
	}
	if st.Errors == 0 || st.Stalls == 0 || st.Partials == 0 || st.Total() == n {
		t.Fatalf("reference sequence does not exercise every class: %+v", st)
	}

	// TCP arm.
	o, f := faultyOrigin(t, plan, seed)
	defer o.Close()
	tcp := make([]httpsim.Fault, n)
	for i := range tcp {
		t0 := time.Now()
		_, _, status, _, err := f.FetchValidatedCtx(context.Background(), "http://site.example/")
		switch {
		case err != nil:
			tcp[i] = httpsim.FaultPartial
		case status == 503:
			tcp[i] = httpsim.FaultError
		case status == 200 && time.Since(t0) >= plan.StallFor:
			tcp[i] = httpsim.FaultStall
		case status == 200:
			tcp[i] = httpsim.FaultNone
		default:
			t.Fatalf("TCP request %d: status %d", i, status)
		}
	}
	f.Client.CloseIdleConnections()
	if !slices.Equal(tcp, want) {
		t.Errorf("TCP origin outcomes\n%v\nwant\n%v", tcp, want)
	}
	if got := o.FaultStats(); got != st {
		t.Errorf("TCP origin stats %+v, want %+v", got, st)
	}

	// Sim arm: no jitter and no link faults, so only the server draws.
	sim := eventsim.New(seed)
	network := simnet.New(sim)
	clientH := network.AddHost("client", simnet.HostConfig{DownlinkBps: 1e6, UplinkBps: 250e3})
	originH := network.AddHost("origin", simnet.HostConfig{})
	dnsH := network.AddHost("dns", simnet.HostConfig{})
	network.SetPath(clientH, originH, simnet.PathParams{RTT: 80 * time.Millisecond})
	network.SetPath(clientH, dnsH, simnet.PathParams{RTT: 70 * time.Millisecond})
	dnssim.NewServer(sim, dnsH, 0)
	store := httpsim.MapStore{
		"http://site.example/": {URL: "http://site.example/", ContentType: "text/html", Body: []byte("<html>0123456789abcdef</html>")},
	}
	srv := httpsim.NewServer(sim, originH, store, 0)
	if err := srv.SetFaults(plan); err != nil {
		t.Fatal(err)
	}
	client := httpsim.NewClient(sim, clientH, httpsim.Directory{"site.example": originH}, dnssim.NewResolver(clientH, dnsH), 1)
	var simSeq []httpsim.Fault
	var issue func()
	issue = func() {
		sent := sim.Now()
		client.Do(httpsim.Request{Method: "GET", URL: "http://site.example/"}, func(r httpsim.Response, at time.Duration) {
			switch {
			case r.Status == 502:
				simSeq = append(simSeq, httpsim.FaultPartial)
			case r.Status == 503:
				simSeq = append(simSeq, httpsim.FaultError)
			case r.Status == 200 && at-sent >= plan.StallFor:
				simSeq = append(simSeq, httpsim.FaultStall)
			case r.Status == 200:
				simSeq = append(simSeq, httpsim.FaultNone)
			default:
				t.Fatalf("sim request %d: status %d", len(simSeq), r.Status)
			}
			if len(simSeq) < n {
				issue()
			}
		})
	}
	issue()
	sim.Run()
	if !slices.Equal(simSeq, want) {
		t.Errorf("simulated server outcomes\n%v\nwant\n%v", simSeq, want)
	}
	if got := srv.FaultStats(); got != st {
		t.Errorf("simulated server stats %+v, want %+v", got, st)
	}
}

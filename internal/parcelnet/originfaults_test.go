package parcelnet

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/parcel-go/parcel/internal/httpsim"
	"github.com/parcel-go/parcel/internal/leakcheck"
	"github.com/parcel-go/parcel/internal/replay"
)

func faultyOrigin(t *testing.T, cfg replay.OriginFaults) (*Origin, *OriginFetcher) {
	t.Helper()
	store := httpsim.MapStore{
		"http://site.example/": {URL: "http://site.example/", ContentType: "text/html", Body: []byte("<html>0123456789abcdef</html>")},
	}
	o, err := StartOrigin("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := replay.NewFaultInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o.SetFaults(fi)
	return o, NewOriginFetcher(o.Addr())
}

func TestOriginFaultErrorServes503(t *testing.T) {
	defer leakcheck.Check(t)()
	o, f := faultyOrigin(t, replay.OriginFaults{ErrorRate: 1})
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
	o, f := faultyOrigin(t, replay.OriginFaults{PartialRate: 1})
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
	o, f := faultyOrigin(t, replay.OriginFaults{StallRate: 1, StallFor: stall})
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

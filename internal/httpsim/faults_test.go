package httpsim

import (
	"bytes"
	"testing"
	"time"
)

func faultStore() MapStore {
	return MapStore{
		"http://example.com/": {URL: "http://example.com/", ContentType: "text/html", Body: []byte("<html>0123456789</html>")},
	}
}

func TestOriginFaultsValidate(t *testing.T) {
	good := []OriginFaults{
		{},
		{ErrorRate: 0.5, StallRate: 0.3, PartialRate: 0.2},
		{Flaps: []FlapWindow{{Start: time.Second, End: 2 * time.Second}}},
	}
	for _, f := range good {
		if err := f.Validate(); err != nil {
			t.Fatalf("good config %+v rejected: %v", f, err)
		}
	}
	bad := []OriginFaults{
		{ErrorRate: -0.1},
		{StallRate: 1.5},
		{ErrorRate: 0.6, StallRate: 0.6},
		{StallFor: -time.Second},
		{Flaps: []FlapWindow{{Start: 2 * time.Second, End: time.Second}}},
	}
	for _, f := range bad {
		if err := f.Validate(); err == nil {
			t.Fatalf("bad config %+v accepted", f)
		}
	}
}

func TestOriginFaultsInactiveDrawsNothing(t *testing.T) {
	// Two identical runs, one with SetFaults(zero value) and one without,
	// must consume identical RNG state: an inactive config is free.
	run := func(arm bool) (int64, Response) {
		f := newFixture(t, faultStore(), 6)
		if arm {
			if err := f.server.SetFaults(OriginFaults{}); err != nil {
				t.Fatal(err)
			}
		}
		var got Response
		f.client.Do(Request{Method: "GET", URL: "http://example.com/"}, func(r Response, at time.Duration) { got = r })
		f.sim.Run()
		return f.sim.Rand().Int63(), got
	}
	d1, r1 := run(false)
	d2, r2 := run(true)
	if d1 != d2 {
		t.Fatalf("inactive faults perturbed RNG: %d vs %d", d1, d2)
	}
	if r1.Status != 200 || r2.Status != 200 || !bytes.Equal(r1.Body, r2.Body) {
		t.Fatalf("inactive faults changed responses: %+v vs %+v", r1, r2)
	}
}

func TestOriginFaultErrorRate(t *testing.T) {
	f := newFixture(t, faultStore(), 6)
	if err := f.server.SetFaults(OriginFaults{ErrorRate: 1}); err != nil {
		t.Fatal(err)
	}
	var got Response
	f.client.Do(Request{Method: "GET", URL: "http://example.com/"}, func(r Response, at time.Duration) { got = r })
	f.sim.Run()
	if got.Status != 503 {
		t.Fatalf("status = %d, want 503", got.Status)
	}
	if s := f.server.FaultStats(); s.Errors != 1 || s.Total() != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestOriginFaultStallDelaysResponse(t *testing.T) {
	stall := 3 * time.Second
	f := newFixture(t, faultStore(), 6)
	if err := f.server.SetFaults(OriginFaults{StallRate: 1, StallFor: stall}); err != nil {
		t.Fatal(err)
	}
	var at time.Duration
	var got Response
	f.client.Do(Request{Method: "GET", URL: "http://example.com/"}, func(r Response, t time.Duration) { got, at = r, t })
	f.sim.Run()
	if got.Status != 200 {
		t.Fatalf("stalled response status = %d", got.Status)
	}
	if at < stall {
		t.Fatalf("response at %v, want >= stall %v", at, stall)
	}
	if s := f.server.FaultStats(); s.Stalls != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestOriginFaultPartialTruncatesBody(t *testing.T) {
	full := faultStore()["http://example.com/"].Body
	f := newFixture(t, faultStore(), 6)
	if err := f.server.SetFaults(OriginFaults{PartialRate: 1}); err != nil {
		t.Fatal(err)
	}
	var got Response
	f.client.Do(Request{Method: "GET", URL: "http://example.com/"}, func(r Response, at time.Duration) { got = r })
	f.sim.Run()
	if got.Status != 502 {
		t.Fatalf("partial status = %d, want 502", got.Status)
	}
	if len(got.Body) != len(full)/2 {
		t.Fatalf("partial body %d bytes, want %d", len(got.Body), len(full)/2)
	}
	// The server hashes nothing: a 502 is never cached, so the retry's full
	// body is what a caching consumer derives the generation from.
	if got.Validator != "" {
		t.Fatalf("unpinned partial response carries validator %q", got.Validator)
	}

	// Nor does a truncated response ever carry the full body's validator,
	// whether the store recorded one or pinned a memo slot (already filled
	// here): its ETag is the hash of the half that arrived.
	for name, obj := range map[string]Object{
		"recorded": {URL: "http://example.com/", Body: full, Validator: "etag-recorded"},
		"pinned":   Object{URL: "http://example.com/", Body: full}.Pinned(),
	} {
		whole := obj.ETag()
		f := newFixture(t, MapStore{obj.URL: obj}, 6)
		if err := f.server.SetFaults(OriginFaults{PartialRate: 1}); err != nil {
			t.Fatal(err)
		}
		f.client.Do(Request{Method: "GET", URL: obj.URL}, func(r Response, at time.Duration) { got = r })
		f.sim.Run()
		if got.Status != 502 || got.Validator != "" || got.ETag() == whole || got.ETag() != ContentValidator(full[:len(full)/2]) {
			t.Errorf("%s object: truncated response status %d validator %q ETag %q (full body's is %q)",
				name, got.Status, got.Validator, got.ETag(), whole)
		}
	}
}

func TestOriginFaultFlapWindow(t *testing.T) {
	f := newFixture(t, faultStore(), 6)
	// Requests land shortly after t=0 (DNS + handshake); flap the origin for
	// the first 10 virtual seconds so the first request hits the window.
	if err := f.server.SetFaults(OriginFaults{Flaps: []FlapWindow{{Start: 0, End: 10 * time.Second}}}); err != nil {
		t.Fatal(err)
	}
	var got Response
	f.client.Do(Request{Method: "GET", URL: "http://example.com/"}, func(r Response, at time.Duration) { got = r })
	f.sim.Run()
	if got.Status != 503 {
		t.Fatalf("flapped status = %d, want 503", got.Status)
	}
	if s := f.server.FaultStats(); s.FlapErrors != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestOriginFaultsDeterministic(t *testing.T) {
	run := func() (oks, errs int) {
		f := newFixture(t, faultStore(), 6)
		if err := f.server.SetFaults(OriginFaults{ErrorRate: 0.5}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			f.client.Do(Request{Method: "GET", URL: "http://example.com/"}, func(r Response, at time.Duration) {
				if r.Status == 200 {
					oks++
				} else {
					errs++
				}
			})
		}
		f.sim.Run()
		return oks, errs
	}
	o1, e1 := run()
	o2, e2 := run()
	if o1 != o2 || e1 != e2 {
		t.Fatalf("same seed diverged: %d/%d vs %d/%d", o1, e1, o2, e2)
	}
	if o1 == 0 || e1 == 0 {
		t.Fatalf("50%% error rate produced %d oks, %d errors", o1, e1)
	}
}

func TestValidatorThreading(t *testing.T) {
	pinned := faultStore()
	obj := pinned["http://example.com/"]
	obj.Validator = "etag-pinned"
	pinned["http://example.com/"] = obj
	f := newFixture(t, pinned, 6)
	var got Response
	f.client.Do(Request{Method: "GET", URL: "http://example.com/"}, func(r Response, at time.Duration) { got = r })
	f.sim.Run()
	if got.Validator != "etag-pinned" {
		t.Fatalf("pinned validator not served: %q", got.Validator)
	}

	// Unpinned objects leave the field empty — the server never hashes a body
	// — and the consumer-side derivation over the delivered bytes is the
	// canonical content hash, stable across requests.
	f2 := newFixture(t, faultStore(), 6)
	var r1, r2 Response
	f2.client.Do(Request{Method: "GET", URL: "http://example.com/"}, func(r Response, at time.Duration) { r1 = r })
	f2.client.Do(Request{Method: "GET", URL: "http://example.com/"}, func(r Response, at time.Duration) { r2 = r })
	f2.sim.Run()
	if r1.Validator != "" || r2.Validator != "" {
		t.Fatalf("server derived validators %q/%q for an unpinned object", r1.Validator, r2.Validator)
	}
	want := ContentValidator(faultStore()["http://example.com/"].Body)
	if v1, v2 := r1.ETag(), r2.ETag(); v1 != want || v2 != want {
		t.Fatalf("derived validators %q/%q, want %q", v1, v2, want)
	}
}

// TestPinnedValidatorHashesOnce pins the memo slot's contract: serving a
// pinned object hashes nothing, the first ETag on any copy — the stored
// object or a response carrying it — hashes the body once, and every later
// call on every copy is free and equal to ContentValidator(body).
func TestPinnedValidatorHashesOnce(t *testing.T) {
	obj := faultStore()["http://example.com/"].Pinned()
	if again := obj.Pinned(); again.pin != obj.pin {
		t.Fatal("Pinned on a pinned object replaced its slot")
	}
	f := newFixture(t, MapStore{obj.URL: obj}, 6)
	var resps []Response
	before := ValidatorHashes()
	for i := 0; i < 3; i++ {
		f.client.Do(Request{Method: "GET", URL: obj.URL}, func(r Response, at time.Duration) { resps = append(resps, r) })
	}
	f.sim.Run()
	if n := ValidatorHashes() - before; n != 0 {
		t.Fatalf("serving a pinned object hashed %d bodies, want 0", n)
	}
	want := ContentValidator(obj.Body)
	before = ValidatorHashes()
	for _, r := range resps {
		if r.Validator != "" || r.ETag() != want {
			t.Fatalf("response validator %q ETag %q, want derived %q", r.Validator, r.ETag(), want)
		}
	}
	if obj.ETag() != want {
		t.Fatalf("object ETag %q, want %q", obj.ETag(), want)
	}
	if n := ValidatorHashes() - before; n != 1 {
		t.Fatalf("%d hashes for one pinned body, want 1", n)
	}

	// Unpinned objects still get a validator, derived on every call.
	bare := faultStore()["http://example.com/"]
	before = ValidatorHashes()
	if bare.ETag() != want || bare.ETag() != want {
		t.Fatalf("unpinned ETag %q, want %q", bare.ETag(), want)
	}
	if n := ValidatorHashes() - before; n != 2 {
		t.Fatalf("%d hashes for two unpinned ETag calls, want 2", n)
	}
}

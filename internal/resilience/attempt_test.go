package resilience

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestAttemptSteps scripts each issued attempt's outcome ("200", "404",
// "503", "err" for a transport error, "timeout" for a deadline that fires
// first) and requires the exact action sequence. The reference driver here is
// the smallest possible one: a virtual clock advanced by every deadline and
// backoff, and a twin RNG proving each Wait is Policy.Backoff of the right
// retry number drawn from the driver's source.
func TestAttemptSteps(t *testing.T) {
	type fetch struct {
		at       time.Duration
		outcomes string
		want     string
	}
	cases := []struct {
		name             string
		pol              Policy
		fetches          []fetch
		opens, fastFails int64
		final            State
	}{
		{name: "ok", fetches: []fetch{{outcomes: "200", want: "issue done"}}},
		{name: "404 is an answer", fetches: []fetch{{outcomes: "404", want: "issue done"}}},
		{name: "503 then ok", fetches: []fetch{{outcomes: "503 200", want: "issue wait issue done"}}},
		{name: "timeout then ok", fetches: []fetch{{outcomes: "timeout 200", want: "issue wait issue done"}}},
		{name: "budget exhausted", pol: Policy{MaxRetries: 2},
			fetches: []fetch{{outcomes: "err 503 timeout", want: "issue wait issue wait issue failed"}}},
		{name: "no retries", pol: Policy{MaxRetries: -1},
			fetches: []fetch{{outcomes: "503", want: "issue failed"}}},
		{name: "breaker opens mid-retry", pol: Policy{MaxRetries: 4, FailureThreshold: 2, OpenFor: time.Minute},
			fetches: []fetch{{outcomes: "503 503", want: "issue wait issue wait refused"}},
			opens:   1, fastFails: 1, final: Open},
		{name: "half-open probe", pol: Policy{MaxRetries: -1, FailureThreshold: 1, OpenFor: time.Second},
			fetches: []fetch{
				{at: 0, outcomes: "503", want: "issue failed"},
				{at: 500 * time.Millisecond, want: "refused"},
				{at: time.Second, outcomes: "503", want: "issue failed"}, // the probe fails: open again
				{at: 2 * time.Second, outcomes: "200", want: "issue done"},
				{at: 2 * time.Second, outcomes: "200", want: "issue done"},
			},
			opens: 2, fastFails: 1, final: Closed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pol := tc.pol.WithDefaults()
			g := NewGroup(tc.pol)
			rng, twin := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
			var now time.Duration
			for i, f := range tc.fetches {
				now = f.at
				outcomes := strings.Fields(f.outcomes)
				var got []string
				a := g.Attempt("origin.test")
				step := a.Start(now)
			steps:
				for {
					switch step.Action {
					case Issue:
						got = append(got, "issue")
						if step.After != pol.Timeout {
							t.Fatalf("fetch %d: attempt deadline %v, want the policy's %v", i, step.After, pol.Timeout)
						}
						if a.Issued() > len(outcomes) {
							t.Fatalf("fetch %d: attempt %d issued, script has %d outcomes", i, a.Issued(), len(outcomes))
						}
						switch o := outcomes[a.Issued()-1]; o {
						case "timeout":
							now += step.After
							step = a.TimedOut(now, rng)
						case "err":
							step = a.Responded(now, 0, errors.New("connection reset"), rng)
						default:
							status := map[string]int{"200": 200, "404": 404, "503": 503}[o]
							step = a.Responded(now, status, nil, rng)
						}
					case Wait:
						got = append(got, "wait")
						if want := pol.Backoff(a.Issued(), twin); step.After != want {
							t.Fatalf("fetch %d: backoff %v before retry %d, want %v", i, step.After, a.Issued(), want)
						}
						now += step.After
						step = a.Start(now)
					default:
						got = append(got, map[Action]string{Done: "done", Failed: "failed", Refused: "refused"}[step.Action])
						break steps
					}
				}
				if want := strings.Fields(f.want); !reflect.DeepEqual(got, want) {
					t.Fatalf("fetch %d at %v: actions %v, want %v", i, f.at, got, want)
				}
			}
			if g.Opens() != tc.opens || g.FastFails() != tc.fastFails {
				t.Errorf("opens = %d, fast fails = %d; want %d and %d", g.Opens(), g.FastFails(), tc.opens, tc.fastFails)
			}
			if tc.opens > 0 {
				if st := g.For("origin.test").State(now); st != tc.final {
					t.Errorf("breaker ends %v, want %v", st, tc.final)
				}
			}
		})
	}
}

// TestAttemptFaultFreeAllocatesNoBreaker: an origin that never failed has no
// breaker to consult, so a fault-free fetch costs the group nothing.
func TestAttemptFaultFreeAllocatesNoBreaker(t *testing.T) {
	g := NewGroup(Policy{})
	rng := rand.New(rand.NewSource(1))
	if n := testing.AllocsPerRun(10, func() {
		a := g.Attempt("origin.test")
		a.Start(0)
		a.Responded(0, 200, nil, rng)
	}); n != 0 {
		t.Errorf("fault-free fetch allocates %.0f, want 0", n)
	}
}

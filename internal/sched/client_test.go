package sched

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestClientSteps drives scripts through a client session and checks, input
// by input, what it answered: Want's action (wait, deliver, request, direct,
// nopath), the requests and direct fetches a shed note or completion note
// asks for, Degrade's result and the resume manifest. One script runs without
// a direct path, one with: before the note, after it, shed, degraded and
// after a disconnect. After every input it checks that no URL has two proxy
// requests out on one connection and no two direct fetches under way.
func TestClientSteps(t *testing.T) {
	type step struct{ op, want string }
	noDirect := []step{
		// Before the note pushes are awaited, and an https object has no way in.
		{"want a", "wait"},
		{"want https://s/x", "nopath"},
		{"recv a", ""},
		{"want a", "deliver"},
		// A shed object is asked of the proxy once wanted, once per connection.
		{"shed b c", ""},
		{"want b", "request"},
		{"want b", "wait"},
		{"want d", "wait"},
		{"want e", "wait"},
		// The note asks for what is wanted and missing, in URL order; once.
		{"complete", "request[d e]"},
		{"complete", ""},
		{"want f", "request"},
		{"want f", "wait"},
		{"recv f", ""},
		{"want f", "deliver"},
		// A disconnect keeps cut prefixes for the manifest; the connection's
		// requests and sheds die with it, so the next one may ask again.
		{"drop g:3", ""},
		{"manifest", "have[a f] partial[g:3]"},
		{"want b", "request"},
		{"want c", "request"},
		{"degrade", "false"},
		{"want x", "request"},
		// A new page waits for its own note; a resumed stream completes g.
		{"start", ""},
		{"want y", "wait"},
		{"resume g", ""},
		{"manifest", "have[a f g] partial[]"},
		{"counts", "received 3 resumed 1 suppressed 2 fallbacks 7 direct 0 shed 2"},
	}
	withDirect := []step{
		// An https object is fetched directly, once; a failure lets the next
		// want try again.
		{"want https://s/x", "direct"},
		{"want https://s/x", "wait"},
		{"fetched https://s/x", ""},
		{"want https://s/x", "deliver"},
		// Shed objects are fetched at once, before the page asks.
		{"shed b c", "direct[b c]"},
		{"want b", "wait"},
		{"failed b", ""},
		{"want b", "direct"},
		{"fetched b", ""},
		{"want d", "wait"},
		// c is being fetched: the note asks only for d.
		{"complete", "request[d]"},
		{"drop e:5", ""},
		{"manifest", "have[b https://s/x] partial[e:5]"},
		// A direct fetch outlives the connection.
		{"want c", "wait"},
		{"shed c h", "direct[h]"},
		// Degraded, every missing object goes direct.
		{"degrade", "true"},
		{"want z", "direct"},
		{"want z", "wait"},
		{"counts", "received 0 resumed 0 suppressed 1 fallbacks 6 direct 6 shed 4"},
	}
	for _, sc := range []struct {
		name   string
		direct bool
		steps  []step
	}{{"no direct path", false, noDirect}, {"direct path", true, withDirect}} {
		t.Run(sc.name, func(t *testing.T) {
			s := NewClientSession(sc.direct, 0)
			s.Start("page", 0)
			requested, fetching := map[string]bool{}, map[string]bool{}
			book := func(req, direct []string) {
				for _, u := range req {
					if requested[u] {
						t.Fatalf("second request for %s on one connection", u)
					}
					requested[u] = true
				}
				for _, u := range direct {
					if fetching[u] {
						t.Fatalf("second direct fetch of %s under way", u)
					}
					fetching[u] = true
				}
			}
			note := func(st ClientStep) string {
				book(st.Request, st.Direct)
				var out []string
				if len(st.Request) > 0 {
					out = append(out, fmt.Sprintf("request%v", st.Request))
				}
				if len(st.Direct) > 0 {
					out = append(out, fmt.Sprintf("direct%v", st.Direct))
				}
				return strings.Join(out, " ")
			}
			for i, st := range sc.steps {
				op, arg, _ := strings.Cut(st.op, " ")
				got := ""
				switch op {
				case "want":
					_, act := s.Want(arg)
					switch act {
					case Request:
						book([]string{arg}, nil)
					case FetchDirect:
						book(nil, []string{arg})
					}
					got = [...]string{"wait", "deliver", "request", "direct", "nopath"}[act]
				case "recv":
					s.Received(Item{URL: arg}, 0)
				case "resume":
					s.Received(Item{URL: arg, Offset: 3}, 0)
				case "fetched", "failed":
					s.Fetched(Item{URL: arg}, op == "fetched")
					delete(fetching, arg)
				case "shed":
					got = note(s.Shed(strings.Fields(arg)))
				case "complete":
					got = note(s.Complete(Counts{}, 0))
				case "drop":
					held := map[string][]byte{}
					for _, p := range strings.Fields(arg) {
						u, n, _ := strings.Cut(p, ":")
						b, _ := strconv.Atoi(n)
						held[u] = make([]byte, b)
					}
					s.Disconnected(held)
					clear(requested)
				case "degrade":
					got = strconv.FormatBool(s.Degrade(0))
				case "start":
					s.Start("page", 0)
				case "manifest":
					have, partial := s.Manifest()
					var ps []string
					for _, p := range partial {
						ps = append(ps, fmt.Sprintf("%s:%d", p.URL, p.Bytes))
					}
					got = fmt.Sprintf("have%v partial%v", have, ps)
				case "counts":
					c := s.ClientCounts
					got = fmt.Sprintf("received %d resumed %d suppressed %d fallbacks %d direct %d shed %d",
						c.ObjectsReceived, c.PartialResumes, c.SuppressedRequests, c.Fallbacks, c.DirectFetches, c.ShedReceived)
				default:
					t.Fatalf("step %d: unknown op %q", i, op)
				}
				if got != st.want {
					t.Errorf("step %d (%s): got %q, want %q", i, st.op, got, st.want)
				}
			}
		})
	}
}

// TestClientTimeline: milestones are durations from Start — the first
// delivery, the first critical one, the note — and Objects keeps arrival
// order, the first arrival of a URL winning.
func TestClientTimeline(t *testing.T) {
	s := NewClientSession(false, 0)
	s.Start("page", 100*time.Millisecond)
	s.Received(Item{URL: "img", ContentType: "image/png", Body: []byte("1")}, 120*time.Millisecond)
	s.Received(Item{URL: "css", ContentType: "text/css"}, 150*time.Millisecond)
	s.Received(Item{URL: "img", ContentType: "image/png", Body: []byte("2")}, 160*time.Millisecond)
	s.Complete(Counts{ObjectsPushed: 2}, 300*time.Millisecond)
	s.Complete(Counts{ObjectsPushed: 9}, 400*time.Millisecond)
	want := Timeline{FirstByte: 20 * time.Millisecond, FirstCritical: 50 * time.Millisecond, Complete: 200 * time.Millisecond}
	if s.Timeline != want || !s.Completed() || s.Note().ObjectsPushed != 2 {
		t.Errorf("timeline %+v, completed %v, note %+v; want %+v, the first note", s.Timeline, s.Completed(), s.Note(), want)
	}
	if got := s.Objects(); !reflect.DeepEqual(got, []string{"img", "css"}) {
		t.Errorf("objects %v, want arrival order [img css]", got)
	}
	if it, _ := s.Want("img"); string(it.Body) != "1" || it.ArrivedAt != 120*time.Millisecond {
		t.Errorf("img = %q at %v, want the first arrival", it.Body, it.ArrivedAt)
	}
}

// TestClientTimelineDirect: an object that lands over the direct path counts
// for the first critical milestone, and a note that comes while direct
// fetches are under way completes the page when the last of them finishes,
// failed or not.
func TestClientTimelineDirect(t *testing.T) {
	s := NewClientSession(true, 0)
	s.Start("page", 100*time.Millisecond)
	s.Shed([]string{"doc", "img"})
	s.Complete(Counts{}, 200*time.Millisecond)
	if s.Timeline.Complete != 0 || !s.Completed() {
		t.Fatalf("note with two direct fetches under way: timeline %+v, completed %v; want notified, not complete", s.Timeline, s.Completed())
	}
	s.Fetched(Item{URL: "doc", ContentType: "text/html", ArrivedAt: 250 * time.Millisecond}, true)
	s.Fetched(Item{URL: "img", ArrivedAt: 300 * time.Millisecond}, false)
	want := Timeline{FirstCritical: 150 * time.Millisecond, Complete: 200 * time.Millisecond}
	if s.Timeline != want {
		t.Errorf("timeline %+v, want %+v: the direct document, then the last direct fetch", s.Timeline, want)
	}

	// The page's document is critical whatever it holds: a failed fetch's
	// error answer, with no content type, is what the page renders.
	s.Start("page", 0)
	s.Received(Item{URL: "page", Status: 502}, 40*time.Millisecond)
	if s.Timeline.FirstCritical != 40*time.Millisecond {
		t.Errorf("error document: first critical %v, want 40ms", s.Timeline.FirstCritical)
	}
}

package httpsim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/parcel-go/parcel/internal/dnssim"
	"github.com/parcel-go/parcel/internal/eventsim"
	"github.com/parcel-go/parcel/internal/simnet"
	"github.com/parcel-go/parcel/internal/trace"
)

// Regenerate deliberately, after an intended change to connection
// management, with:
//
//	go test ./internal/httpsim/ -run TestDispatchGolden -update
var updateDispatch = flag.Bool("update", false, "rewrite testdata/dispatch_golden.json from the current code")

const dispatchGoldenPath = "testdata/dispatch_golden.json"

// dispatchScripts is how many seeded scripts the dispatch golden replays.
const dispatchScripts = 200

// dispatchRow is one script's outcome: its shape, what the client did, and a
// digest of the full dispatch log (every issue with its virtual time, URL and
// connection, every dial, every TLS hello, every eviction).
type dispatchRow struct {
	Seed      int64  `json:"seed"`
	Domains   int    `json:"domains"`
	MaxConns  int    `json:"maxConns"`
	MaxTotal  int    `json:"maxTotal"`
	Requests  int    `json:"requests"`
	Issues    int    `json:"issues"`
	Dials     int    `json:"dials"`
	Evictions int    `json:"evictions"`
	Saturated bool   `json:"saturated"` // total cap reached, requests waiting, nothing idle
	Log       string `json:"log"`       // sha256 prefix of the dispatch log
}

// runDispatchScript builds a client with 1–5 origin domains (each its own
// host, RTT and object set), per-domain cap 1–6 and total cap 0–8, and fires
// bursts of http and https requests at random virtual times. It steps the
// simulator one event at a time and returns the row plus the log lines.
//
// The log is read from the client host's packet capture: the client's uplink
// is unshaped, so a packet departs the instant it is sent and its capture
// time is the dispatch time. A SYN is a dial, a FIN an eviction (nothing else
// closes a client connection), a "tls" data packet a TLS hello, and any other
// data packet a request, labelled with its URL (requests fit one segment).
func runDispatchScript(t *testing.T, seed int64) (dispatchRow, []string) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	sim := eventsim.New(seed)
	n := simnet.New(sim)
	rec := &trace.Recorder{}
	clientH := n.AddHost("client", simnet.HostConfig{DownlinkBps: 1e6, Recorder: rec})

	row := dispatchRow{Seed: seed, Domains: 1 + r.Intn(5), MaxConns: 1 + r.Intn(6), MaxTotal: r.Intn(9)}
	dir := Directory{}
	var urls []string
	for d := 0; d < row.Domains; d++ {
		domain := fmt.Sprintf("d%d.test", d)
		h := n.AddHost(domain, simnet.HostConfig{})
		n.SetPath(clientH, h, simnet.PathParams{RTT: time.Duration(20+r.Intn(150)) * time.Millisecond})
		store := MapStore{}
		for o := 0; o < 6; o++ {
			for _, scheme := range []string{"http", "https"} {
				u := fmt.Sprintf("%s://%s/%d", scheme, domain, o)
				store[u] = Object{URL: u, Body: make([]byte, 200+r.Intn(40000))}
				urls = append(urls, u)
			}
		}
		NewServer(sim, h, store, time.Duration(r.Intn(30))*time.Millisecond)
		dir[domain] = h
	}
	var resolver *dnssim.Resolver
	if seed%2 == 0 {
		dnsH := n.AddHost("dns", simnet.HostConfig{})
		n.SetPath(clientH, dnsH, simnet.PathParams{RTT: 60 * time.Millisecond})
		dnssim.NewServer(sim, dnsH, 0)
		resolver = dnssim.NewResolver(clientH, dnsH)
	}
	c := NewClient(sim, clientH, dir, resolver, row.MaxConns)
	c.SetMaxTotalConns(row.MaxTotal)

	done := 0
	for b, bursts := 0, 1+r.Intn(4); b < bursts; b++ {
		at := time.Duration(r.Intn(2000)) * time.Millisecond
		var burst []string
		for k, size := 0, 1+r.Intn(8); k < size; k++ {
			u := urls[r.Intn(len(urls))]
			if r.Intn(3) != 0 {
				u = strings.Replace(u, "https://", "http://", 1)
			}
			burst = append(burst, u)
		}
		row.Requests += len(burst)
		sim.ScheduleAt(at, func() {
			for _, u := range burst {
				c.Do(Request{Method: "GET", URL: u}, func(Response, time.Duration) { done++ })
			}
		})
	}

	for sim.Step() {
		if row.MaxTotal > 0 && c.totalConns >= row.MaxTotal && len(c.queue) > 0 && !anyIdle(c) {
			row.Saturated = true
		}
	}
	if done != row.Requests {
		t.Fatalf("seed %d: %d of %d requests completed", seed, done, row.Requests)
	}

	var lines []string
	rec.Each(func(p trace.Packet) {
		if p.Dir != trace.Up {
			return
		}
		var ev string
		switch {
		case p.Kind == trace.KindSYN:
			ev, row.Dials = "dial", row.Dials+1
		case p.Kind == trace.KindFIN:
			ev, row.Evictions = "evict", row.Evictions+1
		case p.Kind == trace.KindData && p.Label == "tls":
			ev = "tls"
		case p.Kind == trace.KindData:
			ev, row.Issues = "issue "+p.Label, row.Issues+1
		default:
			return
		}
		lines = append(lines, fmt.Sprintf("%d c%d %s", int64(p.At), p.Conn, ev))
	})
	if row.Issues != row.Requests {
		t.Fatalf("seed %d: %d issues for %d requests", seed, row.Issues, row.Requests)
	}
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	row.Log = hex.EncodeToString(sum[:8])
	return row, lines
}

// anyIdle reports whether some pooled connection is ready and not busy.
func anyIdle(c *Client) bool {
	for _, p := range c.poolList {
		for _, pc := range p.conns {
			if pc.ready && !pc.busy {
				return true
			}
		}
	}
	return false
}

// TestDispatchGolden pins the client's connection management — which request
// goes on which connection when, what it dials and what it evicts — to a log
// recorded from seeded scripts. Changing how the client finds an idle
// connection or a victim may change its cost, never this log.
func TestDispatchGolden(t *testing.T) {
	rows := make([]dispatchRow, dispatchScripts)
	logs := make([][]string, dispatchScripts)
	saturated, evicting := 0, 0
	for i := range rows {
		rows[i], logs[i] = runDispatchScript(t, int64(i+1))
		if rows[i].Saturated {
			saturated++
		}
		if rows[i].Evictions > 0 {
			evicting++
		}
	}
	if saturated == 0 || evicting == 0 {
		t.Fatalf("scripts cover %d saturated and %d evicting rows; want at least one of each", saturated, evicting)
	}

	if *updateDispatch {
		var b strings.Builder
		b.WriteString("[\n")
		for i, row := range rows {
			data, err := json.Marshal(row)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(data)
			if i < len(rows)-1 {
				b.WriteByte(',')
			}
			b.WriteByte('\n')
		}
		b.WriteString("]\n")
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dispatchGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d saturated, %d evicting rows)", dispatchGoldenPath, saturated, evicting)
		return
	}

	data, err := os.ReadFile(dispatchGoldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to generate): %v", err)
	}
	var want []dispatchRow
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	if len(want) != len(rows) {
		t.Fatalf("golden has %d rows, test runs %d", len(want), len(rows))
	}
	for i := range rows {
		if rows[i] != want[i] {
			t.Errorf("seed %d drifted:\n got:  %+v\n want: %+v\n log:\n  %s",
				rows[i].Seed, rows[i], want[i], strings.Join(logs[i], "\n  "))
		}
	}
}

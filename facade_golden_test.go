package parcel_test

import (
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/parcel-go/parcel"
)

// Regenerate deliberately, after an intended change to what a scheme
// measures, with:
//
//	go test . -run TestFacadeGolden -update
var updateFacade = flag.Bool("update", false, "rewrite testdata/facade_golden.json from the current code")

const facadeGoldenPath = "testdata/facade_golden.json"

// facadeRow is every scalar of one facade PageRun. The facade runs without
// jitter on DefaultNetwork(), a path the figure goldens (jittered sweeps)
// do not cover.
type facadeRow struct {
	Scheme           string        `json:"scheme"`
	Page             string        `json:"page"`
	OLT              time.Duration `json:"olt"`
	TLT              time.Duration `json:"tlt"`
	RadioJ           float64       `json:"radioJ"`
	CPUActive        time.Duration `json:"cpuActive"`
	HTTPRequests     int           `json:"httpRequests"`
	ConnsOpened      int           `json:"connsOpened"`
	ObjectsLoaded    int           `json:"objectsLoaded"`
	FallbackRequests int           `json:"fallbackRequests"`
	BytesDown        int64         `json:"bytesDown"`
	BytesUp          int64         `json:"bytesUp"`
	DroppedPackets   int           `json:"droppedPackets"`
	Retransmits      int           `json:"retransmits"`
	RetransmitBytes  int64         `json:"retransmitBytes"`
}

func rowOf(r parcel.PageRun) facadeRow {
	return facadeRow{
		Scheme: r.Scheme, Page: r.Page, OLT: r.OLT, TLT: r.TLT, RadioJ: r.RadioJ,
		CPUActive: r.CPUActive, HTTPRequests: r.HTTPRequests, ConnsOpened: r.ConnsOpened,
		ObjectsLoaded: r.ObjectsLoaded, FallbackRequests: r.FallbackRequests,
		BytesDown: r.BytesDown, BytesUp: r.BytesUp, DroppedPackets: r.DroppedPackets,
		Retransmits: r.Retransmits, RetransmitBytes: r.RetransmitBytes,
	}
}

// TestFacadeGolden pins the full PageRun of every public Run* entry point on
// three pages: DIR, SPDY, CB and PARCEL(IND), each on a fresh topology.
func TestFacadeGolden(t *testing.T) {
	runs := []func(*parcel.Topology) parcel.PageRun{
		parcel.RunDIR,
		parcel.RunSPDY,
		parcel.RunCB,
		func(topo *parcel.Topology) parcel.PageRun { return parcel.RunPARCEL(topo, parcel.IND()) },
	}
	var rows []facadeRow
	for _, page := range parcel.GeneratePages(1, 4)[:3] {
		for _, run := range runs {
			rows = append(rows, rowOf(run(parcel.BuildTopology(page, parcel.DefaultNetwork()))))
		}
	}

	if *updateFacade {
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
		if err := os.WriteFile(facadeGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d rows)", facadeGoldenPath, len(rows))
		return
	}

	data, err := os.ReadFile(facadeGoldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to generate): %v", err)
	}
	var want []facadeRow
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	if len(want) != len(rows) {
		t.Fatalf("golden has %d rows, test runs %d", len(want), len(rows))
	}
	for i := range rows {
		if rows[i] != want[i] {
			t.Errorf("%s on %s drifted:\n got:  %+v\n want: %+v", rows[i].Scheme, rows[i].Page, rows[i], want[i])
		}
	}
}

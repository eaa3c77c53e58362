package webgen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"
)

// Regenerate deliberately, after an intended change to the generated pages,
// with:
//
//	go test ./internal/webgen/ -run TestGenerateGolden -update
var updateGenerate = flag.Bool("update", false, "rewrite testdata/generate_golden.json from the current code")

const generateGoldenPath = "testdata/generate_golden.json"

// generateRow is one page set's fingerprint: its shape and a SHA-256 over
// every object's URL, content type, status and body, in generation order.
type generateRow struct {
	Seed    int64  `json:"seed"`
	Pages   int    `json:"pages"`
	Objects int    `json:"objects"`
	Bytes   int64  `json:"bytes"`
	Digest  string `json:"digest"`
}

func generateFingerprint(seed int64) generateRow {
	row := generateRow{Seed: seed}
	h := sha256.New()
	field := func(b []byte) {
		h.Write(binary.AppendUvarint(nil, uint64(len(b))))
		h.Write(b)
	}
	for _, p := range generateSet(Spec{Seed: seed, NumPages: 34}) {
		row.Pages++
		for _, o := range p.Objects {
			row.Objects++
			row.Bytes += int64(len(o.Body))
			field([]byte(o.URL))
			field([]byte(o.ContentType))
			h.Write(binary.AppendVarint(nil, int64(o.Status)))
			field(o.Body)
		}
	}
	row.Digest = hex.EncodeToString(h.Sum(nil))
	return row
}

// TestGenerateGolden pins the generated page sets of seeds 1, 2 and 42 at 34
// pages byte for byte: every simulated figure is a function of these bodies,
// so a generator change that moves one byte shows here first, by seed.
func TestGenerateGolden(t *testing.T) {
	var got []generateRow
	for _, seed := range []int64{1, 2, 42} {
		got = append(got, generateFingerprint(seed))
	}
	if *updateGenerate {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(generateGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(generateGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	var want []generateRow
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d rows, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("seed %d: got %+v, golden %+v", want[i].Seed, got[i], want[i])
		}
	}
}

package main

import (
	"bytes"
	"strings"
	"testing"

	"github.com/parcel-go/parcel/internal/experiments"
)

// TestAllEqualsEachTargetAlone pins that sharing sweeps between targets is
// exact: rendering every target in one run, where each sweep runs once for
// the union of the schemes its readers read, prints byte for byte what
// rendering each target alone prints, one after the other.
func TestAllEqualsEachTargetAlone(t *testing.T) {
	cfg := experiments.DefaultConfig()
	cfg.Pages, cfg.Runs = 4, 1

	var all, each bytes.Buffer
	run(&all, cfg, allTargets)
	for _, target := range allTargets {
		var one bytes.Buffer
		run(&one, cfg, []string{target})
		if !strings.HasPrefix(one.String(), "\n=== ") || strings.Count(one.String(), "\n") < 3 {
			t.Errorf("%s rendered %q, want a titled table", target, one.String())
		}
		each.Write(one.Bytes())
	}
	if !bytes.Equal(all.Bytes(), each.Bytes()) {
		t.Fatalf("all differs from the targets rendered one by one:\n--- all\n%s\n--- each\n%s", all.String(), each.String())
	}
}

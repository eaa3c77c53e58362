package minijs

import (
	"testing"

	"github.com/parcel-go/parcel/internal/webgen"
)

// pageSetScripts compiles every external script body of seed 1's 34-page
// set: the scripts a cold proxy interprets on first sight of the set.
func pageSetScripts(tb testing.TB) []*Program {
	tb.Helper()
	var progs []*Program
	for _, page := range webgen.Generate(webgen.Spec{Seed: 1, NumPages: 34}) {
		for _, obj := range page.Objects {
			if obj.ContentType != "application/javascript" {
				continue
			}
			p, err := CompileBytes(obj.Body)
			if err != nil {
				tb.Fatalf("%s: %v", obj.URL, err)
			}
			progs = append(progs, p)
		}
	}
	return progs
}

// pageSetNatives binds the page builtins as no-ops, so a run costs only the
// interpreter's own work.
func pageSetNatives(in *Interp) {
	nop := NativeValue(func([]Value) (Value, error) { return Null(), nil })
	for _, name := range []string{"fetch", "fetchAsync", "setTimeout", "onEvent", "rand", "log"} {
		in.Bind(name, nop)
	}
	in.Bind("document", Namespace(map[string]Value{"write": nop, "append": nop, "remove": nop, "show": nop, "hide": nop}))
}

// BenchmarkPageSetScripts runs every script of one seed's page set, each in a
// fresh interpreter as a first sight would: ns/op is one pass over the set,
// ns/jsop the cost of one interpreter step.
func BenchmarkPageSetScripts(b *testing.B) {
	progs := pageSetScripts(b)
	pools := NewPools()
	ops := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops = 0
		for _, p := range progs {
			in := NewWithPools(pools)
			pageSetNatives(in)
			if err := in.Run(p); err != nil {
				b.Fatal(err)
			}
			ops += in.Ops()
		}
	}
	b.ReportMetric(float64(len(progs)), "scripts")
	b.ReportMetric(float64(ops), "jsops")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(ops), "ns/jsop")
}

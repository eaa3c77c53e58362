package analysis

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
)

// Determinism enforces the golden-figure contract statically: in
// sim-deterministic packages every run must be a pure function of inputs and
// seeds, so wall-clock reads, global-RNG draws, and map-iteration order
// reaching output are all reported at vet time instead of surfacing as a
// flaky golden diff.
var Determinism = &analysis.Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock and global-RNG calls, and unsorted map-range output, " +
		"in sim-deterministic packages (virtual time and seeded *rand.Rand only)",
	Run: runDeterminism,
}

// wallClockFuncs are the time-package functions whose result depends on the
// real clock. Pure constructors and arithmetic (time.Duration, ParseDuration,
// Unix, Date, ...) stay legal.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

// seededRandFuncs are the math/rand package-level functions that are allowed
// because they construct isolated sources rather than drawing from the
// process-global RNG.
var seededRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(pass *analysis.Pass) (any, error) {
	return runDeterminismImpl(pass, collectAllows(pass, "determinism"))
}

// runDeterminismImpl is the directive-injectable body: staleallow shadow-runs
// it with a shared, usage-tracked allow set.
func runDeterminismImpl(pass *analysis.Pass, al *allows) (any, error) {
	if !simScoped(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkDeterminismCall(pass, al, n)
			case *ast.FuncDecl:
				if n.Body != nil {
					checkMapRanges(pass, al, n.Body)
				}
			}
			return true
		})
	}
	return nil, nil
}

func checkDeterminismCall(pass *analysis.Pass, al *allows, call *ast.CallExpr) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			al.report(pass, call.Pos(),
				"call to time.%s in sim-deterministic package %s: virtual time must come from the Simulator clock",
				fn.Name(), pass.Pkg.Name())
		}
	case "math/rand", "math/rand/v2":
		// Methods on *rand.Rand have a receiver; only package-level
		// convenience functions draw from the global source.
		if fn.Type().(*types.Signature).Recv() != nil {
			return
		}
		if !seededRandFuncs[fn.Name()] {
			al.report(pass, call.Pos(),
				"call to top-level rand.%s draws from the global RNG in sim-deterministic package %s: thread a seeded *rand.Rand instead",
				fn.Name(), pass.Pkg.Name())
		}
	}
}

// checkMapRanges flags map-range loops whose iteration order can escape the
// function: either the body calls an output sink directly (trace/metrics
// recording, fmt printing), or the body accumulates into a slice that the
// function later returns without sorting. Both turn Go's randomized map
// order into nondeterministic metrics.
func checkMapRanges(pass *analysis.Pass, al *allows, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if sink, name := mapRangeSink(pass, rng.Body); sink {
			al.report(pass, rng.Pos(),
				"map-range loop feeds %s: iteration order is randomized, so output is nondeterministic; iterate sorted keys instead", name)
			return true
		}
		for _, obj := range mapRangeAppends(pass, rng) {
			if returnedUnsorted(pass, body, rng, obj) {
				al.report(pass, rng.Pos(),
					"map iteration order flows into returned slice %q: sort it before returning (or iterate sorted keys)", obj.Name())
			}
		}
		return true
	})
}

// mapRangeSink reports whether the loop body directly calls an
// order-sensitive output sink.
func mapRangeSink(pass *analysis.Pass, body *ast.BlockStmt) (bool, string) {
	found := false
	name := ""
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		path := fn.Pkg().Path()
		switch {
		case path == "fmt" && (fn.Name() == "Print" || fn.Name() == "Println" || fn.Name() == "Printf" ||
			fn.Name() == "Fprint" || fn.Name() == "Fprintln" || fn.Name() == "Fprintf"):
			found, name = true, "fmt output"
		case pkgMatch(map[string]bool{"internal/trace": true}, path):
			found, name = true, "trace recording"
		case pkgMatch(map[string]bool{"internal/metrics": true}, path):
			found, name = true, "metrics output"
		}
		return !found
	})
	return found, name
}

// mapRangeAppends returns the variables (declared outside the loop) that the
// loop body grows with append.
func mapRangeAppends(pass *analysis.Pass, rng *ast.RangeStmt) []*types.Var {
	var out []*types.Var
	seen := map[*types.Var]bool{}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok {
				continue
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
				continue
			} else if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
				continue
			}
			if i >= len(as.Lhs) {
				continue
			}
			id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
			if !ok {
				continue
			}
			v, ok := pass.TypesInfo.Uses[id].(*types.Var)
			if !ok {
				v, ok = pass.TypesInfo.Defs[id].(*types.Var)
				if !ok {
					continue
				}
			}
			// Only variables that outlive the loop matter.
			if v.Pos() >= rng.Pos() && v.Pos() <= rng.End() {
				continue
			}
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		return true
	})
	return out
}

// returnedUnsorted reports whether obj is returned by the enclosing function
// after the range loop without an intervening sort call on it.
func returnedUnsorted(pass *analysis.Pass, body *ast.BlockStmt, rng *ast.RangeStmt, obj *types.Var) bool {
	sorted := false
	returned := false
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil || n.Pos() <= rng.End() {
			return true
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn := calleeFunc(pass.TypesInfo, n); fn != nil && fn.Pkg() != nil &&
				(fn.Pkg().Path() == "sort" || fn.Pkg().Path() == "slices") {
				for _, arg := range n.Args {
					if usesVar(pass, arg, obj) {
						sorted = true
					}
				}
			}
		case *ast.ReturnStmt:
			if sorted {
				return true
			}
			for _, res := range n.Results {
				if id, ok := ast.Unparen(res).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
					returned = true
				}
			}
		}
		return true
	})
	return returned
}

func usesVar(pass *analysis.Pass, e ast.Expr, obj *types.Var) bool {
	used := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			used = true
		}
		return !used
	})
	return used
}

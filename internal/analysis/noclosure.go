package analysis

import (
	"go/ast"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// NoClosure enforces the PR 2 closure-free-continuation rule statically: in
// hot packages, a capturing closure handed to Schedule/ScheduleAt allocates
// once per event — on the simnet data path that is once per packet, which is
// exactly the allocation class the page-load allocation budget
// (experiments.TestPageLoadAllocBudget) exists to forbid.
// Continuations there must use ScheduleArgAt with a package-level func and a
// typed argument (usually a pooled object's fields).
var NoClosure = &analysis.Analyzer{
	Name: "noclosure",
	Doc: "flag capturing closures passed to Schedule/ScheduleAt/ScheduleArgAt in hot " +
		"packages; hot-path continuations must use ScheduleArgAt with typed fields",
	Run: runNoClosure,
}

// scheduleFuncs are the event-scheduling entry points (matched by method
// name so fixture simulators work the same as eventsim.Simulator).
var scheduleFuncs = map[string]bool{
	"Schedule":      true,
	"ScheduleAt":    true,
	"ScheduleArgAt": true,
}

func runNoClosure(pass *analysis.Pass) (any, error) {
	return runNoClosureImpl(pass, collectAllows(pass, "noclosure"))
}

// runNoClosureImpl is the directive-injectable body: staleallow shadow-runs
// it with a shared, usage-tracked allow set.
func runNoClosureImpl(pass *analysis.Pass, al *allows) (any, error) {
	if !pkgMatch(hotPackages, pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || !scheduleFuncs[sel.Sel.Name] {
				return true
			}
			for _, arg := range call.Args {
				lit, ok := ast.Unparen(arg).(*ast.FuncLit)
				if !ok {
					continue
				}
				captured := capturedVars(pass, lit)
				if len(captured) == 0 {
					continue
				}
				names := make([]string, len(captured))
				for i, v := range captured {
					names[i] = v.Name()
				}
				al.report(pass, lit.Pos(),
					"closure passed to %s captures [%s]: hot-path continuations allocate per event; use ScheduleArgAt with a package-level func and typed argument fields",
					sel.Sel.Name, strings.Join(names, ", "))
			}
			return true
		})
	}
	return nil, nil
}

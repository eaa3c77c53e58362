package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPackageScopes holds parcel-vet's tables to the tree they describe:
// every package under internal/ is either sim-scoped or a real-clock
// exception, and every table row names a package, type or function that
// exists — a real one under internal/ or an analysistest fixture — so a
// rename cannot silently drop a package or a pooled type out of a check.
func TestPackageScopes(t *testing.T) {
	entries, err := os.ReadDir("..")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() || declsIn(t, filepath.Join("..", e.Name())) == nil {
			continue
		}
		n++
		sim, exempt := simScoped("example.com/m/internal/"+e.Name()), realClockPackages[e.Name()]
		if sim == exempt {
			t.Errorf("internal/%s: sim-scoped = %v, real-clock exception = %v; want exactly one", e.Name(), sim, exempt)
		}
	}
	if n < 20 {
		t.Fatalf("found only %d packages under internal/", n)
	}
	for _, path := range []string{"example.com/m", "example.com/m/cmd/parcel-vet", "example.com/m/examples/quickstart"} {
		if simScoped(path) {
			t.Errorf("%s is sim-scoped; only internal/ packages are", path)
		}
	}

	for name := range realClockPackages {
		tablePackage(t, "realClockPackages", name)
	}
	for table, rows := range map[string]map[string]bool{
		"wirePackages": wirePackages, "lockPackages": lockPackages, "framePackages": framePackages,
	} {
		for entry := range rows {
			tablePackage(t, table, entry)
		}
	}
	for entry, names := range pooledTypes {
		decls := tablePackage(t, "pooledTypes", entry)
		for _, name := range names {
			if decls != nil && !decls.types[name] {
				t.Errorf("pooledTypes[%q]: no type %s declared there", entry, name)
			}
		}
	}
	for entry, funcs := range pairingSeeds {
		decls := tablePackage(t, "pairingSeeds", entry)
		for name := range funcs {
			if decls != nil && !decls.funcs[name] {
				t.Errorf("pairingSeeds[%q]: no func %s declared there", entry, name)
			}
		}
	}
	emitters := declsIn(t, tablePackageDir("internal/parcelnet"))
	for frame, funcs := range frameEmitters {
		for name := range funcs {
			if !emitters.funcs[name] {
				t.Errorf("frameEmitters[%s]: no func %s declared in internal/parcelnet", frame, name)
			}
		}
	}
}

// tablePackageDir resolves a table row ("internal/simnet", "simnet" or a
// fixture name) to the directory of the package it names.
func tablePackageDir(entry string) string {
	name := strings.TrimPrefix(entry, "internal/")
	if _, err := os.Stat(filepath.Join("..", name)); err == nil {
		return filepath.Join("..", name)
	}
	return filepath.Join("testdata", "src", name)
}

// tablePackage fails unless the row names a package with Go sources, and
// returns that package's top-level declarations.
func tablePackage(t *testing.T, table, entry string) *pkgDecls {
	t.Helper()
	decls := declsIn(t, tablePackageDir(entry))
	if decls == nil {
		t.Errorf("%s row %q names no package under internal/ or testdata/src", table, entry)
	}
	return decls
}

// pkgDecls is a package's top-level type names and func names (methods by
// their bare name).
type pkgDecls struct{ types, funcs map[string]bool }

// declsIn collects the declarations in dir's non-test Go files; it is nil
// when dir holds no such file.
func declsIn(t *testing.T, dir string) *pkgDecls {
	t.Helper()
	var out *pkgDecls
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		if out == nil {
			out = &pkgDecls{types: map[string]bool{}, funcs: map[string]bool{}}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				out.funcs[d.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						out.types[ts.Name.Name] = true
					}
				}
			}
		}
	}
	return out
}

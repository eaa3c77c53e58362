// Command parcel-vet runs the repository's custom go/analysis suite: the
// eight analyzers of internal/analysis (DESIGN.md §10).
//
// It speaks the `go vet -vettool` unitchecker protocol, so the same binary
// works both ways:
//
//	go run ./cmd/parcel-vet ./...          # direct: re-execs via go vet
//	go vet -vettool=$(which parcel-vet) ./...
//
// When invoked with package patterns, parcel-vet re-executes itself through
// `go vet -vettool=<self>`, which handles loading, type checking, and export
// data; when the go command invokes it back with a *.cfg unit file (or -V),
// it runs the unitchecker.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"

	"golang.org/x/tools/go/analysis/unitchecker"

	"github.com/parcel-go/parcel/internal/analysis"
)

func main() {
	args := os.Args[1:]
	direct := len(args) == 0
	for _, a := range args {
		if !strings.HasPrefix(a, "-") && !strings.HasSuffix(a, ".cfg") {
			direct = true
		}
	}
	if !direct {
		unitchecker.Main(analysis.Analyzers()...) // never returns
	}

	if len(args) == 0 {
		args = []string{"./..."}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "parcel-vet: cannot locate own binary: %v\n", err)
		os.Exit(2)
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + exe}, args...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	cmd.Stdin = os.Stdin
	if err := cmd.Run(); err != nil {
		if _, ok := err.(*exec.ExitError); !ok {
			fmt.Fprintf(os.Stderr, "parcel-vet: %v\n", err)
		}
		os.Exit(1)
	}
}

// Command parcel-escape is the compiler-escape budget gate: it rebuilds the
// hot-path packages with -gcflags=-m, attributes every "escapes to heap" /
// "moved to heap" diagnostic to the declared hot functions, and compares the
// per-function counts against the checked-in budget (escape_budget.json at
// the repository root). The hot set is the code whose zero-allocation
// discipline the benchmarks depend on: the minijs interpreter loop, the
// eventsim step, the simnet sender, and the parcelnet wire encode/decode
// path. A count above budget fails the gate — an accidental closure capture
// or interface boxing on these paths is a performance regression even when
// every test stays green.
//
// Escape analysis output is a compiler implementation detail, so the budget
// records the Go release it was measured with: the gate enforces on a
// matching major.minor toolchain and downgrades to a warning otherwise.
// Run with -update after a deliberate change (or a toolchain bump) to
// re-measure and rewrite the budget.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// hotFunc is one declared hot-path function: a package (repo-relative import
// directory), a receiver type name ("" for plain functions), and the method
// or function name.
type hotFunc struct {
	pkg  string
	recv string
	name string
}

// key is the budget-file identity: pkg.(*Recv).name / pkg.name.
func (h hotFunc) key() string {
	if h.recv == "" {
		return h.pkg + "." + h.name
	}
	return h.pkg + ".(*" + h.recv + ")." + h.name
}

// hotSet is the declared hot path. Adding a function here puts it under the
// gate; removing one is a declaration that its allocations stopped mattering
// and belongs in the same change that relaxes it.
var hotSet = []hotFunc{
	// minijs interpreter: one step per budget tick, frames and arg slices
	// pooled.
	{"internal/minijs", "Interp", "step"},
	{"internal/minijs", "Interp", "exec"},
	{"internal/minijs", "Interp", "execBlock"},
	{"internal/minijs", "Interp", "execScope"},
	{"internal/minijs", "Interp", "newFrame"},
	{"internal/minijs", "Interp", "freeFrame"},
	{"internal/minijs", "Interp", "getArgs"},
	{"internal/minijs", "Interp", "putArgs"},

	// discovery: exec-outcome replay, the per-script path of every memoised
	// page load on both arms — validate, charge, bind, no allocation.
	{"internal/discovery", "Env", "replay"},

	// eventsim: the virtual-clock dispatch loop and the queue under it.
	{"internal/eventsim", "Simulator", "Step"},
	{"internal/eventsim", "eventQueue", "push"},
	{"internal/eventsim", "eventQueue", "pop"},

	// simnet: the per-segment sender path.
	{"internal/simnet", "sender", "pump"},
	{"internal/simnet", "sender", "onSegmentArrived"},
	{"internal/simnet", "sender", "onAck"},
	{"internal/simnet", "Conn", "Send"},

	// parcelnet wire path: hpack-style meta coding and the mux frame
	// assembler, plus the benchmark steps that pin them.
	{"internal/parcelnet", "MetaEncoder", "AppendMeta"},
	{"internal/parcelnet", "MetaDecoder", "ReadMeta"},
	{"internal/parcelnet", "muxSender", "nextFrame"},
	{"internal/parcelnet", "WireBench", "EncodeStep"},
	{"internal/parcelnet", "WireBench", "DecodeStep"},
}

// budgetFile is the checked-in gate state.
type budgetFile struct {
	// Go is the major.minor toolchain release the counts were measured with.
	Go string `json:"go"`
	// Escapes maps hotFunc keys to the number of heap-escape diagnostics
	// the compiler reported inside the function body.
	Escapes map[string]int `json:"escapes"`
}

// escapeRe matches one -gcflags=-m diagnostic line.
var escapeRe = regexp.MustCompile(`^(.+\.go):(\d+):\d+: (.*)$`)

func main() {
	update := flag.Bool("update", false, "re-measure and rewrite the budget file")
	budgetPath := flag.String("budget", "escape_budget.json", "budget file, relative to the repository root")
	flag.Parse()

	root, err := repoRoot()
	if err != nil {
		fatalf("locate repository root: %v", err)
	}
	counts, err := measure(root)
	if err != nil {
		fatalf("%v", err)
	}

	path := filepath.Join(root, *budgetPath)
	if *update {
		if err := writeBudget(path, counts); err != nil {
			fatalf("write budget: %v", err)
		}
		fmt.Printf("parcel-escape: wrote %s for go %s\n", *budgetPath, goMinor())
		printCounts(counts)
		return
	}

	var budget budgetFile
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("read budget: %v (run parcel-escape -update to create it)", err)
	}
	if err := json.Unmarshal(data, &budget); err != nil {
		fatalf("parse budget: %v", err)
	}

	if budget.Go != goMinor() {
		fmt.Fprintf(os.Stderr,
			"parcel-escape: WARNING: budget measured with go %s, running go %s — escape analysis differs across releases, gate not enforced (run -update on the pinned toolchain)\n",
			budget.Go, goMinor())
		printCounts(counts)
		return
	}

	failed := false
	for _, h := range hotSet {
		k := h.key()
		want, ok := budget.Escapes[k]
		if !ok {
			fmt.Fprintf(os.Stderr, "parcel-escape: %s is in the hot set but not in the budget (run -update)\n", k)
			failed = true
			continue
		}
		got := counts[k]
		switch {
		case got > want:
			fmt.Fprintf(os.Stderr, "parcel-escape: FAIL %s: %d heap escapes, budget %d\n", k, got, want)
			failed = true
		case got < want:
			fmt.Fprintf(os.Stderr, "parcel-escape: note: %s improved to %d escapes (budget %d) — run -update to ratchet\n", k, got, want)
		}
	}
	for k := range budget.Escapes {
		if !inHotSet(k) {
			fmt.Fprintf(os.Stderr, "parcel-escape: budget entry %s is not in the hot set (run -update)\n", k)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("parcel-escape: %d hot functions within budget (go %s)\n", len(hotSet), goMinor())
}

func inHotSet(key string) bool {
	for _, h := range hotSet {
		if h.key() == key {
			return true
		}
	}
	return false
}

// repoRoot resolves the module root so package patterns and diagnostic paths
// are stable regardless of the invoking directory.
func repoRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", err
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("not inside a module")
	}
	return filepath.Dir(gomod), nil
}

// measure rebuilds the hot packages with -gcflags=-m and attributes heap
// escapes to hot functions by file:line containment.
func measure(root string) (map[string]int, error) {
	pkgs := map[string]bool{}
	var args []string
	for _, h := range hotSet {
		if !pkgs[h.pkg] {
			pkgs[h.pkg] = true
			args = append(args, "./"+h.pkg)
		}
	}
	spans, err := functionSpans(root)
	if err != nil {
		return nil, err
	}

	cmd := exec.Command("go", append([]string{"build", "-gcflags=-m"}, args...)...)
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m: %v\n%s", err, out.String())
	}

	counts := map[string]int{}
	for _, h := range hotSet {
		counts[h.key()] = 0
	}
	for _, line := range strings.Split(out.String(), "\n") {
		m := escapeRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		msg := m[3]
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		ln, _ := strconv.Atoi(m[2])
		file := filepath.ToSlash(m[1])
		for key, span := range spans {
			if span.file == file && ln >= span.start && ln <= span.end {
				counts[key]++
				break
			}
		}
	}
	return counts, nil
}

// span is one hot function's body extent.
type span struct {
	file       string // repo-relative, slash-separated
	start, end int
}

// functionSpans parses the hot packages' sources and locates each declared
// hot function.
func functionSpans(root string) (map[string]span, error) {
	out := map[string]span{}
	fset := token.NewFileSet()
	for _, h := range hotSet {
		dir := filepath.Join(root, filepath.FromSlash(h.pkg))
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		found := false
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name.Name != h.name || recvName(fd) != h.recv {
					continue
				}
				start := fset.Position(fd.Pos())
				end := fset.Position(fd.End())
				out[h.key()] = span{
					file:  h.pkg + "/" + name,
					start: start.Line,
					end:   end.Line,
				}
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("hot function %s not found in %s: update hotSet", h.key(), h.pkg)
		}
	}
	return out, nil
}

// recvName extracts a FuncDecl's receiver type name ("" for functions).
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func writeBudget(path string, counts map[string]int) error {
	b := budgetFile{Go: goMinor(), Escapes: counts}
	data, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// goMinor is the running toolchain's major.minor ("1.24").
func goMinor() string {
	v := strings.TrimPrefix(runtime.Version(), "go")
	parts := strings.SplitN(v, ".", 3)
	if len(parts) >= 2 {
		return parts[0] + "." + parts[1]
	}
	return v
}

func printCounts(counts map[string]int) {
	var keys []string
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-50s %d\n", k, counts[k])
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "parcel-escape: "+format+"\n", args...)
	os.Exit(1)
}

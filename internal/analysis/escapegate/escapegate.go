// Package escapegate turns the hot paths' zero-alloc property into a
// deterministic static check.
//
// PR 5 made the packet pool and the engine's event heap allocation-free
// in steady state, but the guarantee was enforced only by benchmark
// allocation counts with a ±10% runner-noise tolerance. The compiler
// already proves the property on every build: `go build -gcflags=-m`
// reports exactly which values escape to the heap. This package parses
// that output, attributes each escape to the enclosing function, and
// compares the escapes inside a designated list of hot-path functions
// against a committed baseline (ESCAPES_baseline.json at the repository
// root). A new escape in a designated function — a packet fallback
// allocation, a closure capture in ScheduleArg, an interface boxing in
// Egress.Enqueue — fails the gate with the compiler's own message, before
// any benchmark runs.
//
// The baseline is not empty: panic paths legitimately escape their
// message strings (fmt.Sprintf arguments, constant strings passed to
// panic), and Pool.Get's pool-empty fallback intentionally allocates.
// Those known escapes are recorded per function; the gate fails only on
// escapes beyond the recorded multiset. To refresh after an intentional
// change: go test -run TestEscapeGate -update .
package escapegate

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Escape is one compiler-reported heap escape.
type Escape struct {
	// File is the path as the compiler printed it (relative to the
	// build's working directory).
	File string
	// Line is the 1-based source line.
	Line int
	// Msg is the diagnostic text after the position prefix.
	Msg string
}

// escapeLine matches `path/file.go:line:col: msg` diagnostics.
var escapeLine = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.+)$`)

// ParseBuildOutput extracts heap-escape diagnostics from combined
// `go build -gcflags=-m` output, dropping inlining chatter.
func ParseBuildOutput(output string) []Escape {
	var out []Escape
	for _, line := range strings.Split(output, "\n") {
		m := escapeLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		msg := m[4]
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		n, err := strconv.Atoi(m[2])
		if err != nil {
			continue
		}
		out = append(out, Escape{File: m[1], Line: n, Msg: msg})
	}
	return out
}

// Attribute maps each escape to its enclosing function, qualified as
// "dir.FuncName" or "dir.(*Recv).Name" where dir is the file's directory
// relative to root (e.g. "internal/sim.(*Engine).schedule"). Escapes
// outside any function declaration (package-level initializers) are
// attributed to "dir.<init>". Files that cannot be parsed are skipped
// with an error.
func Attribute(root string, escapes []Escape) (map[string][]string, error) {
	type span struct {
		name       string
		start, end int
	}
	spansByFile := map[string][]span{}
	fset := token.NewFileSet()
	for _, e := range escapes {
		if _, done := spansByFile[e.File]; done {
			continue
		}
		path := e.File
		if !filepath.IsAbs(path) {
			path = filepath.Join(root, path)
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("escapegate: parse %s: %w", e.File, err)
		}
		dir := filepath.ToSlash(filepath.Dir(e.File))
		var spans []span
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			spans = append(spans, span{
				name:  qualify(dir, funcName(fd)),
				start: fset.Position(fd.Pos()).Line,
				end:   fset.Position(fd.End()).Line,
			})
		}
		spansByFile[e.File] = spans
	}

	out := map[string][]string{}
	for _, e := range escapes {
		fn := qualify(filepath.ToSlash(filepath.Dir(e.File)), "<init>")
		for _, s := range spansByFile[e.File] {
			if e.Line >= s.start && e.Line <= s.end {
				fn = s.name
				break
			}
		}
		out[fn] = append(out[fn], e.Msg)
	}
	for _, msgs := range out {
		sort.Strings(msgs)
	}
	return out, nil
}

// qualify prefixes fn with its package directory; files built from the
// module root (dir ".") get the bare function name.
func qualify(dir, fn string) string {
	if dir == "." || dir == "" {
		return fn
	}
	return dir + "." + fn
}

// funcName renders a declaration as "Name" or "(*Recv).Name"/"Recv.Name".
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		if id, ok := star.X.(*ast.Ident); ok {
			return "(*" + id.Name + ")." + fd.Name.Name
		}
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// Baseline is the committed record of accepted heap escapes in the
// designated hot-path functions.
type Baseline struct {
	// Version guards the file format.
	Version int `json:"version"`
	// Packages are the package directories the gate builds with -m.
	Packages []string `json:"packages"`
	// Functions maps each designated function to its accepted escape
	// messages (a multiset: repeated messages must appear repeatedly).
	Functions map[string][]string `json:"functions"`
}

// Load reads a baseline file.
func Load(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("escapegate: %s: %w", path, err)
	}
	if b.Version != 1 {
		return nil, fmt.Errorf("escapegate: %s: unsupported version %d", path, b.Version)
	}
	return &b, nil
}

// Save writes a baseline file deterministically (sorted keys, trailing
// newline) so refreshes produce minimal diffs.
func (b *Baseline) Save(path string) error {
	for _, msgs := range b.Functions {
		sort.Strings(msgs)
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Check compares observed escapes against the baseline for every
// designated function and returns one human-readable violation per new
// escape. Escapes that disappeared are fine (an improvement); extra
// occurrences of a known message count as new.
func Check(b *Baseline, observed map[string][]string) []string {
	designated := make([]string, 0, len(b.Functions))
	for fn := range b.Functions {
		designated = append(designated, fn)
	}
	sort.Strings(designated)

	var violations []string
	for _, fn := range designated {
		allowed := map[string]int{}
		for _, msg := range b.Functions[fn] {
			allowed[msg]++
		}
		for _, msg := range observed[fn] {
			if allowed[msg] > 0 {
				allowed[msg]--
				continue
			}
			violations = append(violations, fmt.Sprintf(
				"%s: new heap escape: %s (not in ESCAPES_baseline.json; if intentional, refresh with go test -run TestEscapeGate -update .)",
				fn, msg))
		}
	}
	return violations
}

// Documentation lints, run by the CI docs job: exported identifiers in the
// observability-critical packages must carry godoc comments, intra-repo
// markdown links must resolve, and the commands the docs show must name
// real programs, experiment ids and flags. Pure analysis — no simulation
// runs here.
package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"ecnsharp/internal/experiments"
	_ "ecnsharp/internal/tune" // registers tuned-vs-default, as in ecnsharp-bench
)

// docAuditPackages are the packages whose godoc completeness is enforced
// (the trace subsystem and the layers it instruments, plus the service
// surface — the daemon, its cache, and the sweep-spec layer they share).
var docAuditPackages = []string{
	"internal/trace",
	"internal/queue",
	"internal/aqm",
	"internal/harness",
	"internal/cache",
	"internal/service",
	"internal/experiments",
	"internal/tune",
}

// TestExportedDocComments fails for every exported top-level identifier in
// the audited packages that lacks a doc comment, and for every single-name
// declaration whose comment does not mention the identifier in its first
// sentence (grouped const/var blocks may share one block comment).
func TestExportedDocComments(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range docAuditPackages {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			auditFile(t, fset, path, f)
		}
	}
}

func auditFile(t *testing.T, fset *token.FileSet, path string, f *ast.File) {
	t.Helper()
	report := func(pos token.Pos, id, problem string) {
		p := fset.Position(pos)
		t.Errorf("%s:%d: exported %s %s", path, p.Line, id, problem)
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || !receiverExported(d) {
				continue
			}
			checkDoc(report, d.Pos(), d.Name.Name, d.Doc)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if !s.Name.IsExported() {
						continue
					}
					doc := s.Doc
					if doc == nil {
						doc = d.Doc
					}
					checkDoc(report, s.Pos(), s.Name.Name, doc)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if !n.IsExported() {
							continue
						}
						// A const/var group may share the block's comment.
						if s.Doc == nil && s.Comment == nil && d.Doc == nil {
							report(n.Pos(), n.Name, "has no doc comment")
						}
					}
				}
			}
		}
	}
}

// receiverExported reports whether a method's receiver type is exported
// (methods on unexported types are not part of the package's godoc).
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	typ := d.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if idx, ok := typ.(*ast.IndexExpr); ok {
		typ = idx.X
	}
	id, ok := typ.(*ast.Ident)
	return !ok || id.IsExported()
}

// checkDoc enforces godoc style: a comment exists and its first sentence
// names the identifier (leading articles allowed).
func checkDoc(report func(token.Pos, string, string), pos token.Pos, name string, doc *ast.CommentGroup) {
	if doc == nil || strings.TrimSpace(doc.Text()) == "" {
		report(pos, name, "has no doc comment")
		return
	}
	text := strings.TrimSpace(doc.Text())
	for _, article := range []string{"A ", "An ", "The "} {
		text = strings.TrimPrefix(text, article)
	}
	if !strings.HasPrefix(text, name) {
		report(pos, name, "doc comment does not start with the identifier name")
	}
}

// mdLink matches inline markdown links [text](target). Images and
// reference-style links are out of scope.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestMarkdownLinks fails for every intra-repo markdown link whose target
// file does not exist. External (http/mailto) and pure-anchor links are
// skipped; anchors on file links are stripped (file existence only).
func TestMarkdownLinks(t *testing.T) {
	mdFiles := markdownFiles(t)
	for _, md := range mdFiles {
		data, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") ||
				strings.HasPrefix(target, "mailto:") ||
				strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(md), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (%v)", md, m[1], err)
			}
		}
	}
}

// markdownFiles lists every markdown file in the tree outside dot
// directories.
func markdownFiles(t *testing.T) []string {
	t.Helper()
	var mdFiles []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".md") {
			mdFiles = append(mdFiles, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mdFiles) == 0 {
		t.Fatal("no markdown files found")
	}
	return mdFiles
}

// journals record commands as they were when written, so TestDocCommands
// does not hold them to today's tree.
var journals = map[string]bool{"CHANGES.md": true, "ROADMAP.md": true}

var (
	codeSpan = regexp.MustCompile("`([^`]+)`")
	// goRun skips capitalised placeholders such as `go run ./X`; every
	// package path in the tree is lower-case.
	goRun = regexp.MustCompile(`go run (\./[a-z][\w./-]*)`)
	// cliCall finds an invocation of one of the two CLIs, bare or as a
	// path (./cmd/ecnsim, /tmp/ecnsharp-bench), followed by its arguments.
	cliCall = regexp.MustCompile(`(?:^|[\s/])(ecnsharp-bench|ecnsim)(?:\s|$)`)
	expID   = regexp.MustCompile(`^[a-z0-9][a-z0-9-]*$`)
)

// TestDocCommands checks the commands the docs show — in fenced code blocks
// and inline code spans of every markdown file outside vendor/ and the
// journals: every `go run ./X` names a directory holding package main,
// every -flag on an ecnsim or ecnsharp-bench line is one that command
// defines (read from its flag.* calls), and every positional argument of
// ecnsharp-bench is a registered experiment id.
func TestDocCommands(t *testing.T) {
	flags := map[string]map[string]bool{
		"ecnsim":         cmdFlags(t, "cmd/ecnsim"),
		"ecnsharp-bench": cmdFlags(t, "cmd/ecnsharp-bench"),
	}
	ids := map[string]bool{}
	for _, e := range experiments.All() {
		ids[e.ID] = true
	}
	for _, md := range markdownFiles(t) {
		if journals[md] || strings.HasPrefix(md, "vendor"+string(filepath.Separator)) {
			continue
		}
		data, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		inFence := false
		for n, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inFence = !inFence
				continue
			}
			snippets := []string{line}
			if !inFence {
				snippets = nil
				for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
					snippets = append(snippets, m[1])
				}
			}
			where := md + ":" + strconv.Itoa(n+1)
			for _, code := range snippets {
				for _, m := range goRun.FindAllStringSubmatch(code, -1) {
					if !isMainPackage(t, m[1]) {
						t.Errorf("%s: `go run %s` names no main package", where, m[1])
					}
				}
				for _, loc := range cliCall.FindAllStringSubmatchIndex(code, -1) {
					cmd := code[loc[2]:loc[3]]
					checkCLIArgs(t, where, cmd, strings.Fields(code[loc[3]:]), flags[cmd], ids)
				}
			}
		}
	}
}

// checkCLIArgs checks one invocation's arguments up to the first shell
// operator, comment or placeholder. flags maps each defined flag to
// whether it is boolean (takes no separate value).
func checkCLIArgs(t *testing.T, where, cmd string, args []string, flags map[string]bool, ids map[string]bool) {
	t.Helper()
	for i := 0; i < len(args); i++ {
		a := args[i]
		if strings.ContainsAny(a[:1], "|&;<>#([\\") || strings.HasPrefix(a, "2>") {
			return
		}
		if !strings.HasPrefix(a, "-") {
			if cmd == "ecnsharp-bench" && expID.MatchString(a) && !ids[a] {
				t.Errorf("%s: `%s %s`: no experiment %q", where, cmd, a, a)
			}
			continue
		}
		name, _, hasValue := strings.Cut(strings.TrimLeft(a, "-"), "=")
		isBool, ok := flags[name]
		switch {
		case name == "h" || name == "help":
		case !ok:
			t.Errorf("%s: %s has no flag -%s", where, cmd, name)
		case !isBool && !hasValue:
			i++ // the flag's value
		}
	}
}

// cmdFlags returns the flags the main package in dir defines through the
// flag package's constructors, each mapped to whether it is boolean.
func cmdFlags(t *testing.T, dir string) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	flags := map[string]bool{}
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			arg := call.Args[0]
			if strings.HasSuffix(sel.Sel.Name, "Var") && len(call.Args) > 1 {
				arg = call.Args[1] // flag.XVar(&v, name, ...)
			}
			if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				flags[name] = strings.HasPrefix(sel.Sel.Name, "Bool")
			}
			return true
		})
	}
	if len(flags) == 0 {
		t.Fatalf("%s defines no flags", dir)
	}
	return flags
}

// isMainPackage reports whether dir holds a non-test Go file of package
// main.
func isMainPackage(t *testing.T, dir string) bool {
	t.Helper()
	paths, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.PackageClauseOnly)
		if err != nil {
			t.Fatal(err)
		}
		if f.Name.Name == "main" {
			return true
		}
	}
	return false
}

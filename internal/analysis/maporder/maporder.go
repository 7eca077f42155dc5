// Package maporder defines an analyzer that flags Go's classic silent
// nondeterminism: iterating a map in an order-sensitive way.
//
// Map iteration order is randomized per run. Two patterns break the
// simulator's byte-identical-output contract:
//
//   - emitting inside the loop: a range over a map whose body writes to an
//     output sink (a tracer, an io.Writer, fmt.Fprint*, a table/summary
//     append) produces differently-ordered output on every run;
//   - collecting without sorting: appending map keys or values to a slice
//     that the enclosing function never sorts leaks the random order to
//     the caller.
//
// The fix is always the same: collect the keys, sort them, then iterate
// the sorted slice (see cache.Store.evictLocked for the idiom).
// Order-insensitive loops that the heuristic still trips on are annotated
// with "//lint:allow maporder -- <reason>" on the range statement line.
package maporder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"

	"ecnsharp/internal/analysis/lintallow"
)

// sinkMethods are method names treated as output sinks when called inside
// a map-range body. They cover the repo's writers: io.Writer and friends,
// trace.Tracer.Trace, encoders, and the experiment table builders.
var sinkMethods = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
	"Trace":       true,
	"Emit":        true,
	"Encode":      true,
	"Flush":       true,
	"AddRow":      true,
	"AddNote":     true,
	"Print":       true,
	"Printf":      true,
	"Println":     true,
}

// name is the analyzer name used in diagnostics and allow comments.
const name = "maporder"

// Analyzer is the maporder analyzer.
var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      "flags range-over-map loops that reach an output sink or collect into a never-sorted slice; sort keys before emission",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func init() { lintallow.RegisterKnown(name) }

func run(pass *analysis.Pass) (any, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	allow := lintallow.NewIndex(pass.Fset, pass.Files)

	ins.WithStack([]ast.Node{(*ast.RangeStmt)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		rs := n.(*ast.RangeStmt)
		tv := pass.TypesInfo.TypeOf(rs.X)
		if tv == nil {
			return true
		}
		if _, isMap := tv.Underlying().(*types.Map); !isMap {
			return true
		}
		if lintallow.InTestFile(pass.Fset, rs.Pos()) {
			return true
		}

		// Gather the loop's violations before consulting the allow index:
		// Allowed marks an annotation as used, so an allow on the range
		// line of a loop with nothing to report must not be consulted —
		// it is stale and the stale scan should say so.
		sinks := sinkCalls(pass, rs.Body)
		fn := enclosingFunc(stack)
		var apps []appendTo
		for _, app := range outerAppends(pass, rs) {
			if fn != nil && sortedLater(pass, fn, rs.End(), app.obj) {
				continue
			}
			apps = append(apps, app)
		}
		if len(sinks) == 0 && len(apps) == 0 {
			return true
		}
		// An allow on the range statement line suppresses the whole loop.
		loopAllowed := allow.Allowed(name, rs.Pos())

		// Direct sinks inside the loop body.
		for _, call := range sinks {
			if loopAllowed || allow.Allowed(name, call.pos) {
				continue
			}
			pass.Reportf(call.pos,
				"%s inside iteration over map %s: map order is nondeterministic; sort the keys and iterate the sorted slice (or annotate //lint:allow maporder -- <reason>)",
				call.desc, exprString(rs.X))
		}

		// Collect-without-sort: appends to slices declared outside the loop
		// that the enclosing function never sorts.
		for _, app := range apps {
			if loopAllowed || allow.Allowed(name, app.pos) {
				continue
			}
			pass.Reportf(app.pos,
				"%q collects elements from iteration over map %s but is never sorted in this function; map order is nondeterministic (sort before use or annotate //lint:allow maporder -- <reason>)",
				app.obj.Name(), exprString(rs.X))
		}
		return true
	})
	lintallow.Finish(pass, allow, name)
	return nil, nil
}

// sink is one output call found inside a map-range body.
type sink struct {
	pos  token.Pos
	desc string
}

// sinkCalls finds output-sink calls lexically inside body.
func sinkCalls(pass *analysis.Pass, body *ast.BlockStmt) []sink {
	var out []sink
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := typeutil.Callee(pass.TypesInfo, call)
		f, ok := fn.(*types.Func)
		if !ok {
			return true
		}
		sig, _ := f.Type().(*types.Signature)
		switch {
		case f.Pkg() != nil && f.Pkg().Path() == "fmt" &&
			(strings.HasPrefix(f.Name(), "Fprint") || strings.HasPrefix(f.Name(), "Print")):
			out = append(out, sink{call.Pos(), "fmt." + f.Name()})
		case sig != nil && sig.Recv() != nil && sinkMethods[f.Name()]:
			out = append(out, sink{call.Pos(), "call to (" + recvString(sig) + ")." + f.Name()})
		}
		return true
	})
	return out
}

// appendTo is one `x = append(x, …)` in a map-range body whose target x is
// declared outside the loop.
type appendTo struct {
	pos token.Pos
	obj types.Object
}

// outerAppends finds appends inside rs.Body to identifiers declared before
// the range statement.
func outerAppends(pass *analysis.Pass, rs *ast.RangeStmt) []appendTo {
	var out []appendTo
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isBuiltinAppend(pass, call) {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.TypesInfo.ObjectOf(id)
			if obj == nil || obj.Pos() >= rs.Pos() {
				continue // loop-local accumulator; its lifetime ends with the loop
			}
			out = append(out, appendTo{as.Pos(), obj})
		}
		return true
	})
	return out
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin
}

// sortedLater reports whether, after pos, the function body calls into
// package sort or slices with obj appearing in an argument — the
// collect-then-sort idiom.
func sortedLater(pass *analysis.Pass, fn ast.Node, pos token.Pos, obj types.Object) bool {
	sorted := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		f, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
		if !ok || f.Pkg() == nil {
			return true
		}
		if p := f.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
					sorted = true
				}
				return !sorted
			})
		}
		return true
	})
	return sorted
}

// enclosingFunc returns the innermost FuncDecl or FuncLit in stack.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// recvString renders a method receiver type compactly.
func recvString(sig *types.Signature) string {
	t := sig.Recv().Type()
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

// exprString renders a short source form of e for diagnostics.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprString(e.Fun) + "(…)"
	case *ast.IndexExpr:
		return exprString(e.X) + "[…]"
	default:
		return fmt.Sprintf("%T", e)
	}
}

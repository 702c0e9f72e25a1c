package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The noalloc check enforces the hot-path contract established by the
// build and scoring work: functions annotated //lsilint:noalloc — the
// Lanczos step, the scoring kernels, the gemv/gemm inner routines — must
// not heap-allocate per call. The garbage they would generate is paid on
// every iteration of loops that run millions of times, and the kernel
// benchmarks (`make bench-tables`, the lanczos BuildK16 pair) assume zero
// allocs/op after warm-up.
//
// Flagged constructs: make/new, append (may grow), slice and map
// composite literals, address-of composite literals, string
// concatenation and string<->[]byte/[]rune conversions, closures that
// capture variables, and implicit conversions of concrete values to
// interface types (call arguments, assignments, returns).
//
// Deliberately not flagged:
//   - calls into other functions: this check is per-function; the
//     noalloctrans module check closes the gap by verifying callees
//     transitively over the call graph;
//   - anything inside a panic(...) argument: dimension-mismatch panics
//     are failure paths that never execute per-iteration;
//   - plain (non-address-taken) struct composite literals, which stay on
//     the stack when they do not escape.
//
// A bodyless declaration (an assembly stub) has nothing to scan; its
// annotation is taken on trust by noalloctrans, and this check requires
// it to carry //go:noescape as well.
//
// The scanner itself (scanAllocs) is shared with noalloctrans, which
// uses it to decide whether unannotated leaves are allocation-free.

func init() {
	register(&Check{
		ID:  "noalloc",
		Doc: "allocation in a function annotated //lsilint:noalloc",
		Run: runNoAlloc,
	})
}

func runNoAlloc(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !hasNoallocDirective(fd) {
				continue
			}
			if fd.Body == nil {
				// Without //go:noescape the compiler assumes the assembly
				// retains its pointer arguments: callers' buffers go to the heap.
				if !hasGoNoescape(fd) {
					p.Reportf(fd.Pos(), "bodyless noalloc function %s lacks //go:noescape: its pointer arguments escape in every caller", fd.Name.Name)
				}
				continue
			}
			scanAllocs(p.Info, fd, func(pos token.Pos, format string, args ...interface{}) {
				p.Reportf(pos, format, args...)
			})
		}
	}
}

// bodyAllocates reports whether fd's body contains any allocating
// construct, ignoring suppression directives — a leaf that allocates is
// not allocation-free for transitivity purposes even if its own finding
// was waived.
func bodyAllocates(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Body == nil {
		return true // no body visible: cannot verify
	}
	allocates := false
	scanAllocs(info, fd, func(token.Pos, string, ...interface{}) { allocates = true })
	return allocates
}

// scanAllocs walks one function body and calls report for every
// allocating construct. Panic argument subtrees are skipped; nested
// function literal bodies are scanned (they run on the hot path too).
func scanAllocs(info *types.Info, fd *ast.FuncDecl, report func(pos token.Pos, format string, args ...interface{})) {
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(node.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return false // failure path: skip the whole argument subtree
			}
			switch builtinName(info, node) {
			case "make":
				report(node.Pos(), "make allocates in noalloc function %s", fd.Name.Name)
			case "new":
				report(node.Pos(), "new allocates in noalloc function %s", fd.Name.Name)
			case "append":
				report(node.Pos(), "append may grow and allocate in noalloc function %s; preallocate capacity outside", fd.Name.Name)
			}
			if msg := allocatingConversion(info, node); msg != "" {
				report(node.Pos(), "%s allocates in noalloc function %s", msg, fd.Name.Name)
			}
			reportInterfaceArgs(info, node, fd.Name.Name, report)
		case *ast.CompositeLit:
			t := info.TypeOf(node)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				report(node.Pos(), "slice literal allocates in noalloc function %s", fd.Name.Name)
			case *types.Map:
				report(node.Pos(), "map literal allocates in noalloc function %s", fd.Name.Name)
			}
		case *ast.UnaryExpr:
			if node.Op == token.AND {
				if _, ok := ast.Unparen(node.X).(*ast.CompositeLit); ok {
					report(node.Pos(), "&composite literal escapes to the heap in noalloc function %s", fd.Name.Name)
				}
			}
		case *ast.BinaryExpr:
			if node.Op == token.ADD {
				if t := info.TypeOf(node); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						report(node.Pos(), "string concatenation allocates in noalloc function %s", fd.Name.Name)
					}
				}
			}
		case *ast.FuncLit:
			if capt := capturedVar(info, node, fd); capt != "" {
				report(node.Pos(), "closure captures %q and allocates in noalloc function %s", capt, fd.Name.Name)
			}
			// Keep descending: the literal's body runs on the hot path too.
		case *ast.GoStmt:
			report(node.Pos(), "go statement allocates a goroutine in noalloc function %s", fd.Name.Name)
		case *ast.AssignStmt:
			reportInterfaceAssign(info, node, fd.Name.Name, report)
		case *ast.ReturnStmt:
			reportInterfaceReturn(info, node, fd, report)
		}
		return true
	}
	ast.Inspect(fd.Body, visit)
}

// allocatingConversion recognizes type conversions that copy memory:
// string(bytes), []byte(s), []rune(s).
func allocatingConversion(info *types.Info, call *ast.CallExpr) string {
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return ""
	}
	to := tv.Type.Underlying()
	from := info.TypeOf(call.Args[0])
	if from == nil {
		return ""
	}
	fromU := from.Underlying()
	if b, ok := to.(*types.Basic); ok && b.Info()&types.IsString != 0 {
		if _, isSlice := fromU.(*types.Slice); isSlice {
			return "[]byte/[]rune-to-string conversion"
		}
	}
	if _, ok := to.(*types.Slice); ok {
		if b, ok := fromU.(*types.Basic); ok && b.Info()&types.IsString != 0 {
			return "string-to-slice conversion"
		}
	}
	return ""
}

// reportInterfaceArgs flags call arguments implicitly converted from a
// concrete type to an interface parameter — the conversion boxes the
// value on the heap when it escapes (and fmt-style variadics always do).
func reportInterfaceArgs(info *types.Info, call *ast.CallExpr, fname string, report func(token.Pos, string, ...interface{})) {
	if builtinName(info, call) != "" {
		return
	}
	ft := info.TypeOf(call.Fun)
	if ft == nil {
		return
	}
	sig, ok := ft.Underlying().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			last := sig.Params().At(sig.Params().Len() - 1).Type()
			if s, ok := last.(*types.Slice); ok {
				param = s.Elem()
			}
		case i < sig.Params().Len():
			param = sig.Params().At(i).Type()
		}
		if param == nil || !types.IsInterface(param) {
			continue
		}
		if at := info.TypeOf(arg); at != nil && !types.IsInterface(at) && !isUntypedNil(info, arg) {
			report(arg.Pos(),
				"implicit conversion of %s to interface %s may allocate in noalloc function %s",
				types.TypeString(at, nil), types.TypeString(param, nil), fname)
		}
	}
}

// reportInterfaceAssign flags assignments of concrete values into
// interface-typed destinations.
func reportInterfaceAssign(info *types.Info, as *ast.AssignStmt, fname string, report func(token.Pos, string, ...interface{})) {
	if as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		lt := info.TypeOf(lhs)
		rt := info.TypeOf(as.Rhs[i])
		if lt != nil && rt != nil && types.IsInterface(lt) && !types.IsInterface(rt) && !isUntypedNil(info, as.Rhs[i]) {
			report(as.Rhs[i].Pos(),
				"assigning %s into interface %s may allocate in noalloc function %s",
				types.TypeString(rt, nil), types.TypeString(lt, nil), fname)
		}
	}
}

// reportInterfaceReturn flags returns whose declared result type is an
// interface while the returned expression is concrete.
func reportInterfaceReturn(info *types.Info, ret *ast.ReturnStmt, fd *ast.FuncDecl, report func(token.Pos, string, ...interface{})) {
	obj, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	sig := obj.Type().(*types.Signature)
	if sig.Results().Len() != len(ret.Results) {
		return // bare return or comma-ok shapes: nothing converted here
	}
	for i, res := range ret.Results {
		want := sig.Results().At(i).Type()
		if got := info.TypeOf(res); types.IsInterface(want) && got != nil && !types.IsInterface(got) && !isUntypedNil(info, res) {
			report(res.Pos(),
				"returning concrete %s as interface %s may allocate in noalloc function %s",
				types.TypeString(got, nil), types.TypeString(want, nil), fd.Name.Name)
		}
	}
}

func isUntypedNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	b, isBasic := tv.Type.(*types.Basic)
	return isBasic && b.Kind() == types.UntypedNil
}

// capturedVar returns the name of a variable the function literal
// captures from its enclosing function, or "" when it captures nothing.
// Package-level variables do not count: referencing them needs no
// closure environment, so the literal stays a static function value.
func capturedVar(info *types.Info, lit *ast.FuncLit, fd *ast.FuncDecl) string {
	captured := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		if obj.Parent() == nil || obj.Pkg() == nil {
			return true
		}
		if obj.Parent() == obj.Pkg().Scope() {
			return true // package-level
		}
		// Declared outside the literal but inside the enclosing function:
		// that's a capture.
		if obj.Pos() < lit.Pos() && obj.Pos() >= fd.Pos() {
			captured = obj.Name()
		}
		return true
	})
	return captured
}

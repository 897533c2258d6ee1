package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotallocAnalyzer guards the zero-allocation message hot path. The
// engine's steady-state round — send, scatter, deliver — performs zero
// heap allocations, an invariant the AllocsPerRun gates enforce at
// runtime; this analyzer enforces it structurally so a refactor cannot
// reintroduce an allocation that the gate only catches later (or only on
// a code path the gate's workload misses).
//
// Functions opt in with a //congest:hotpath doc-comment directive.
// Inside a marked function the analyzer flags the constructs that
// allocate (or defeat escape analysis):
//
//   - closures (func literals) and goroutine spawns,
//   - make and new calls,
//   - heap-escaping composite literals (&T{...}),
//   - append to a fresh slice (nil, composite-literal, or make operand),
//   - implicit interface conversions of non-pointer values — call
//     arguments, assignments, returns, and explicit conversions — which
//     box their operand.
//
// v2 is interprocedural: from each marked root the analyzer follows
// statically-resolved in-module callees (depth-bounded), so a helper
// extracted from the send/scatter path is held to the same contract even
// without its own annotation. Callees marked //congest:hotpath are their
// own roots and are skipped; a callee whose doc carries
// //congest:coldpath is a sanctioned cold cut (the traced-only
// flow-summary emitter); dynamic calls — interface methods, func values —
// cut naturally. A chain deeper than the traversal bound is itself a
// finding: annotate the callee so the contract stays visible.
//
// Cold branches inside a hot function — error construction, grow paths —
// are exempted statement-by-statement with //congest:coldpath, keeping
// the escape visible and narrow.
var HotallocAnalyzer = &Analyzer{
	Name: "hotalloc",
	Doc:  "//congest:hotpath functions, and the callees they reach, contain no allocating constructs",
	Run:  runHotalloc,
}

// hotCallDepth bounds the callee traversal from each hot-path root. The
// engine's real chains are depth ≤ 2 (deliver → admit → deposit); the
// bound exists so a pathological call web cannot stall the analyzer, and
// exceeding it is reported rather than ignored.
const hotCallDepth = 4

func runHotalloc(pass *Pass) {
	pkg := pass.Pkg
	h := &hotWalker{pass: pass, cg: pass.Module.callGraph(), visited: make(map[*types.Func]bool)}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !docHas(fd.Doc, DirHotpath) {
				continue
			}
			h.walk(hotFrame{
				pkg:  pkg,
				sig:  pkg.Info.Defs[fd.Name].Type().(*types.Signature),
				root: fd.Name.Name,
			}, fd.Body)
		}
	}
}

type hotWalker struct {
	pass    *Pass
	cg      *callGraph
	visited map[*types.Func]bool // callees traversed this pass, walked once
}

// hotFrame is the per-body traversal context: the package the body lives
// in (directives and type info are per-package), the body's own signature
// (for returns), the traversal depth, and the hot-path root for callee
// diagnostics.
type hotFrame struct {
	pkg   *Package
	sig   *types.Signature
	depth int
	root  string
}

// reportf emits a finding; findings inside traversed callees name the
// hot-path root that reaches them.
func (h *hotWalker) reportf(f hotFrame, pos token.Pos, format string, args ...any) {
	if f.depth > 0 {
		format += " (reached from //congest:hotpath %s)"
		args = append(args, f.root)
	}
	h.pass.Reportf(f.pkg, pos, format, args...)
}

func (h *hotWalker) walk(f hotFrame, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool { return h.visit(f, n) })
}

func (h *hotWalker) visit(f hotFrame, n ast.Node) bool {
	if n == nil {
		return false
	}
	if stmt, ok := n.(ast.Stmt); ok && f.pkg.markedAt(h.pass.Module, stmt.Pos(), DirColdpath) {
		return false // cold branch: skip the whole subtree
	}
	switch n := n.(type) {
	case *ast.FuncLit:
		h.reportf(f, n.Pos(), "closure literal in a hot-path function allocates; hoist it out of the hot path")
		return false
	case *ast.GoStmt:
		h.reportf(f, n.Pos(), "goroutine spawn in a hot-path function allocates a stack per call")
		return true
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if _, ok := n.X.(*ast.CompositeLit); ok {
				h.reportf(f, n.Pos(), "heap-escaping composite literal (&T{...}) in a hot-path function")
			}
		}
	case *ast.CallExpr:
		h.checkCall(f, n)
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			if i >= len(n.Rhs) {
				break // x, y = f() — conversion happens at the call result, skip
			}
			if n.Tok == token.DEFINE {
				continue // defines take the RHS type verbatim; no conversion
			}
			h.checkConversion(f, n.Rhs[i], f.pkg.Info.TypeOf(lhs), "assignment to")
		}
	case *ast.ReturnStmt:
		results := f.sig.Results()
		if len(n.Results) == results.Len() {
			for i, res := range n.Results {
				h.checkConversion(f, res, results.At(i).Type(), "return into")
			}
		}
	}
	return true
}

// checkCall flags allocating builtins and implicit interface conversions
// at call boundaries, then follows statically-resolved in-module callees.
func (h *hotWalker) checkCall(f hotFrame, call *ast.CallExpr) {
	// Builtins: make/new allocate; append to a fresh slice allocates.
	if ident, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := f.pkg.Info.Uses[ident].(*types.Builtin); isBuiltin {
			switch ident.Name {
			case "make", "new":
				h.reportf(f, call.Pos(), "%s in a hot-path function allocates; reuse a preallocated buffer", ident.Name)
			case "append":
				if len(call.Args) > 0 && freshSlice(f.pkg, call.Args[0]) {
					h.reportf(f, call.Pos(), "append to a fresh slice in a hot-path function allocates; append to a reused, grow-only buffer")
				}
			}
			return
		}
	}
	tv, ok := f.pkg.Info.Types[call.Fun]
	if !ok {
		return
	}
	if tv.IsType() {
		// Explicit conversion T(x): boxing if T is an interface.
		if len(call.Args) == 1 {
			h.checkConversion(f, call.Args[0], tv.Type, "conversion to")
		}
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var paramType types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // arg is already the []T; no per-element conversion
			}
			paramType = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			paramType = params.At(i).Type()
		default:
			continue
		}
		h.checkConversion(f, arg, paramType, "argument to interface parameter of")
	}
	h.followCallee(f, call)
}

// followCallee extends the hot-path contract through a non-annotated
// in-module callee.
func (h *hotWalker) followCallee(f hotFrame, call *ast.CallExpr) {
	fn := staticCallee(f.pkg, call)
	if fn == nil {
		return // func value or builtin: dynamic, cut
	}
	site, ok := h.cg.decls[fn]
	if !ok {
		return // interface method or out-of-module: cut
	}
	if docHas(site.fd.Doc, DirHotpath) {
		return // its own root; analyzed (and reported) independently
	}
	if docHas(site.fd.Doc, DirColdpath) {
		return // sanctioned cold callee (e.g. the traced-only flow emitter)
	}
	if h.visited[fn] {
		return
	}
	if f.depth >= hotCallDepth {
		h.reportf(f, call.Pos(),
			"call to %s exceeds hotalloc's depth-%d traversal; annotate it //congest:hotpath or //congest:coldpath so the contract stays auditable",
			fn.Name(), hotCallDepth)
		return
	}
	h.visited[fn] = true
	h.walk(hotFrame{
		pkg:   site.pkg,
		sig:   fn.Type().(*types.Signature),
		depth: f.depth + 1,
		root:  f.root,
	}, site.fd.Body)
}

// checkConversion reports expr being converted to target when that
// conversion boxes: target is an interface, expr's static type is a
// concrete non-pointer-shaped value (pointers, channels, maps, and funcs
// fit the interface word and do not allocate).
func (h *hotWalker) checkConversion(f hotFrame, expr ast.Expr, target types.Type, context string) {
	if target == nil || !types.IsInterface(target) {
		return
	}
	tv, ok := f.pkg.Info.Types[expr]
	if !ok || tv.IsNil() || tv.Type == nil || types.IsInterface(tv.Type) {
		return
	}
	if pointerShaped(tv.Type) {
		return
	}
	h.reportf(f, expr.Pos(),
		"%s %s boxes a %s value in a hot-path function; interface conversions of non-pointer values allocate",
		context, target, tv.Type)
}

// pointerShaped reports whether values of t fit an interface's data word
// without boxing.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return true
	}
	return false
}

// freshSlice reports whether expr denotes a slice that did not exist
// before this statement: nil, a composite literal, or a make call.
func freshSlice(pkg *Package, expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		if ident, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && ident.Name == "make" {
			_, isBuiltin := pkg.Info.Uses[ident].(*types.Builtin)
			return isBuiltin
		}
	case *ast.Ident:
		if tv, ok := pkg.Info.Types[e]; ok && tv.IsNil() {
			return true
		}
	}
	return false
}

// Package hotalloc implements the civet hotalloc analyzer: a
// compile-time complement to the runtime testing.AllocsPerRun gate on
// the simulator's zero-allocation steady state. Functions whose doc
// comment carries //civet:hotpath (core.Proc.Step, Proc.RunContext
// and the engine tick functions) are roots; the analyzer walks every
// function they statically call within the same package — stopping at
// //civet:coldpath — and flags constructs that allocate or are likely
// to escape to the heap:
//
//   - make of a map, chan or slice, and builtin new
//   - map/slice composite literals, and &T{...} literals
//   - append whose destination is a function-local slice (an
//     unhoisted buffer that may grow every call)
//   - func literals that capture enclosing variables (closure +
//     captured vars move to the heap)
//   - boxing a concrete value into an interface (assignment,
//     argument, or return position)
//   - string concatenation and string<->[]byte/[]rune conversions
//   - go statements (goroutine + closure allocation)
//
// These are escape heuristics, not the compiler's escape analysis:
// a flagged construct the compiler provably keeps on the stack can be
// suppressed with //civet:allow hotalloc <reason>, which doubles as
// in-source documentation of why the allocation is acceptable.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"civect/internal/lint/directive"
)

// Analyzer is the hotalloc analysis.
var Analyzer = &analysis.Analyzer{
	Name:     "hotalloc",
	Doc:      "flags heap-allocating constructs in functions reachable from a //civet:hotpath root, turning the AllocsPerRun runtime gate into a compile-time one",
	Requires: []*analysis.Analyzer{inspect.Analyzer, directive.Loader},
	Run:      run,
}

func run(pass *analysis.Pass) (any, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ix := pass.ResultOf[directive.Loader].(*directive.Index)

	// Collect every function declaration and its defining object so
	// calls can be resolved back to declarations.
	decls := make(map[types.Object]*ast.FuncDecl)
	var order []*ast.FuncDecl
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fn := n.(*ast.FuncDecl)
		if fn.Body == nil {
			return
		}
		if obj := pass.TypesInfo.ObjectOf(fn.Name); obj != nil {
			decls[obj] = fn
		}
		order = append(order, fn)
	})

	// Breadth-first closure from the hotpath roots over same-package
	// static calls, pruned at coldpath functions.
	hot := make(map[*ast.FuncDecl]bool)
	var queue []*ast.FuncDecl
	for _, fn := range order {
		if ix.Hot(fn) && !ix.Cold(fn) {
			hot[fn] = true
			queue = append(queue, fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, callee := range callees(pass, fn, decls) {
			if hot[callee] || ix.Cold(callee) {
				continue
			}
			hot[callee] = true
			queue = append(queue, callee)
		}
	}

	for _, fn := range order {
		if hot[fn] {
			checkHotFunc(pass, ix, fn)
		}
	}
	return nil, nil
}

// callees resolves the static same-package calls made by fn, both
// plain functions and methods.
func callees(pass *analysis.Pass, fn *ast.FuncDecl, decls map[types.Object]*ast.FuncDecl) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var obj types.Object
		switch f := call.Fun.(type) {
		case *ast.Ident:
			obj = pass.TypesInfo.ObjectOf(f)
		case *ast.SelectorExpr:
			obj = pass.TypesInfo.ObjectOf(f.Sel)
		}
		if obj == nil {
			return true
		}
		if callee, ok := decls[obj]; ok {
			out = append(out, callee)
		}
		return true
	})
	return out
}

func checkHotFunc(pass *analysis.Pass, ix *directive.Index, fn *ast.FuncDecl) {
	info := pass.TypesInfo
	hoisted := hoistedLocals(pass, fn)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			// Arguments to panic are exempt: an assertion firing ends
			// the run, so its formatting cannot perturb steady state.
			if id, ok := n.Fun.(*ast.Ident); ok {
				if b, ok := info.ObjectOf(id).(*types.Builtin); ok && b.Name() == "panic" {
					return false
				}
			}
			checkCall(pass, ix, fn, n, hoisted)
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map:
				ix.Report(pass, n.Pos(), "map literal allocates in hot path")
			case *types.Slice:
				ix.Report(pass, n.Pos(), "slice literal allocates in hot path")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					ix.Report(pass, n.Pos(), "&composite literal escapes to the heap in hot path")
				}
			}
		case *ast.FuncLit:
			if captures(pass, fn, n) {
				ix.Report(pass, n.Pos(), "func literal captures enclosing variables; closure and captures move to the heap in hot path")
			}
			return false // a closure body is a new (non-hot) activation
		case *ast.GoStmt:
			ix.Report(pass, n.Pos(), "go statement in hot path allocates a goroutine per call")
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if t := info.TypeOf(n); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						ix.Report(pass, n.Pos(), "string concatenation allocates in hot path")
					}
				}
			}
		case *ast.AssignStmt:
			checkBoxingAssign(pass, ix, n)
		case *ast.ReturnStmt:
			checkBoxingReturn(pass, ix, fn, n)
		}
		return true
	})
}

// hoistedLocals finds function-local slice variables whose backing
// array is hoisted state: `x := p.buf[:0]`, `q := p.readyQ`,
// `l, ok := p.pool[w]` — a reslice or read of a field, element or
// package-level variable. Appending to such a local is the
// simulator's pooled double-buffering idiom: growth beyond capacity
// is persisted back to the owner, so it amortizes to zero
// allocations in steady state.
func hoistedLocals(pass *analysis.Pass, fn *ast.FuncDecl) map[types.Object]bool {
	hoisted := make(map[types.Object]bool)
	var backed func(e ast.Expr) bool
	backed = func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.SliceExpr:
			switch x := e.X.(type) {
			case *ast.SelectorExpr, *ast.IndexExpr:
				return true
			case *ast.Ident:
				obj := pass.TypesInfo.ObjectOf(x)
				return obj != nil &&
					(obj.Pos() < fn.Pos() || obj.Pos() >= fn.End() || hoisted[obj])
			}
		case *ast.SelectorExpr, *ast.IndexExpr:
			return true
		case *ast.CallExpr:
			// Seeding from hoisted backing: u := append(p.buf[:0], xs...)
			if id, ok := e.Fun.(*ast.Ident); ok && len(e.Args) > 0 {
				if b, ok := pass.TypesInfo.ObjectOf(id).(*types.Builtin); ok && b.Name() == "append" {
					return backed(e.Args[0])
				}
			}
		}
		return false
	}
	// Source order handles chained reslices (`q := p.waitQ` then
	// `out := q[:0]`); iterate to a fixpoint for the rare backward
	// reference.
	for changed := true; changed; {
		changed = false
		mark := func(lhs ast.Expr) {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := pass.TypesInfo.ObjectOf(id); obj != nil && !hoisted[obj] {
					hoisted[obj] = true
					changed = true
				}
			}
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || as.Tok != token.DEFINE {
				return true
			}
			switch {
			case len(as.Lhs) == len(as.Rhs):
				for i, rhs := range as.Rhs {
					if backed(rhs) {
						mark(as.Lhs[i])
					}
				}
			case len(as.Rhs) == 1 && backed(as.Rhs[0]):
				// comma-ok from a map of pooled lists: l, ok := p.pool[w]
				mark(as.Lhs[0])
			}
			return true
		})
	}
	return hoisted
}

func checkCall(pass *analysis.Pass, ix *directive.Index, fn *ast.FuncDecl, call *ast.CallExpr, hoisted map[types.Object]bool) {
	info := pass.TypesInfo
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := info.ObjectOf(id).(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				t := info.TypeOf(call)
				if t == nil {
					return
				}
				switch t.Underlying().(type) {
				case *types.Map:
					ix.Report(pass, call.Pos(), "make(map) allocates in hot path")
				case *types.Chan:
					ix.Report(pass, call.Pos(), "make(chan) allocates in hot path")
				case *types.Slice:
					ix.Report(pass, call.Pos(), "make([]T) allocates in hot path; hoist the buffer to a struct field")
				}
			case "new":
				ix.Report(pass, call.Pos(), "new(T) allocates in hot path")
			case "append":
				checkAppend(pass, ix, fn, call, hoisted)
			}
			return
		}
	}
	// A conversion expression looks like a call; string<->[]byte and
	// []rune conversions copy through the heap.
	if conversionAllocs(info, call) {
		ix.Report(pass, call.Pos(), "string conversion allocates in hot path")
		return
	}
	checkBoxingArgs(pass, ix, call)
}

// checkAppend flags append whose destination slice is declared inside
// fn itself: an unhoisted buffer that may grow (and thus allocate) on
// every invocation. Appends to fields or package state amortize to
// zero in steady state and stay legal.
func checkAppend(pass *analysis.Pass, ix *directive.Index, fn *ast.FuncDecl, call *ast.CallExpr, hoisted map[types.Object]bool) {
	if len(call.Args) == 0 {
		return
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return // append to field / indexed destination: hoisted state
	}
	obj := pass.TypesInfo.ObjectOf(id)
	if obj == nil || obj.Pos() == token.NoPos || hoisted[obj] {
		return
	}
	if obj.Pos() >= fn.Pos() && obj.Pos() < fn.End() {
		ix.Report(pass, call.Pos(), "append to function-local slice %s may grow per call in hot path; hoist the backing buffer", id.Name)
	}
}

// captures reports whether lit references a variable declared in the
// enclosing function fn (making it a heap-allocated closure).
func captures(pass *analysis.Pass, fn *ast.FuncDecl, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		// Declared inside fn but outside the literal itself.
		if obj.Pos() >= fn.Pos() && obj.Pos() < lit.Pos() {
			found = true
			return false
		}
		return true
	})
	return found
}

func conversionAllocs(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return false
	}
	to, from := tv.Type.Underlying(), info.TypeOf(call.Args[0])
	if from == nil {
		return false
	}
	return (isString(to) && isByteOrRuneSlice(from.Underlying())) ||
		(isByteOrRuneSlice(to) && isString(from.Underlying()))
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// checkBoxingArgs flags concrete values passed to interface-typed
// parameters (including fmt's ...any), the classic hidden allocation.
func checkBoxingArgs(pass *analysis.Pass, ix *directive.Index, call *ast.CallExpr) {
	sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos && i == params.Len()-1 {
				pt = params.At(params.Len() - 1).Type() // s... passes the slice through
			} else {
				pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if boxes(pass.TypesInfo, pt, arg) {
			ix.Report(pass, arg.Pos(), "argument boxes %s into %s in hot path", pass.TypesInfo.TypeOf(arg).String(), pt.String())
		}
	}
}

func checkBoxingAssign(pass *analysis.Pass, ix *directive.Index, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, rhs := range as.Rhs {
		lt := pass.TypesInfo.TypeOf(as.Lhs[i])
		if lt == nil {
			continue
		}
		if boxes(pass.TypesInfo, lt, rhs) {
			ix.Report(pass, rhs.Pos(), "assignment boxes %s into %s in hot path", pass.TypesInfo.TypeOf(rhs).String(), lt.String())
		}
	}
}

func checkBoxingReturn(pass *analysis.Pass, ix *directive.Index, fn *ast.FuncDecl, ret *ast.ReturnStmt) {
	obj, ok := pass.TypesInfo.ObjectOf(fn.Name).(*types.Func)
	if !ok {
		return
	}
	results := obj.Signature().Results()
	if results.Len() != len(ret.Results) {
		return
	}
	for i, r := range ret.Results {
		if boxes(pass.TypesInfo, results.At(i).Type(), r) {
			ix.Report(pass, r.Pos(), "return boxes %s into %s in hot path", pass.TypesInfo.TypeOf(r).String(), results.At(i).Type().String())
		}
	}
}

// boxes reports whether assigning expr to target converts a concrete
// value into an interface. Nil literals and values that are already
// interfaces do not box.
func boxes(info *types.Info, target types.Type, expr ast.Expr) bool {
	if target == nil || !types.IsInterface(target.Underlying()) {
		return false
	}
	et := info.TypeOf(expr)
	if et == nil || types.IsInterface(et.Underlying()) {
		return false
	}
	if b, ok := et.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return true
}

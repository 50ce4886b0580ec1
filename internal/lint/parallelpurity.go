package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

func init() {
	Register(&Analyzer{
		Name: "parallelpurity",
		Doc: "closures passed to the internal/parallel kernels (For, Reduce, " +
			"Map) run concurrently over index chunks, so " +
			"bit-identical results at any GOMAXPROCS require them to be pure " +
			"per-index transforms: no writes to captured variables, no writes " +
			"to captured slices at indices not derived from the closure's own " +
			"variables, and no nondeterministic APIs (wall clock, shared " +
			"math/rand state)",
		Run: runParallelpurity,
	})
}

// parallelKernels are the exported kernels whose closure arguments are
// checked. The value is the human-readable callee rendered in messages.
var parallelKernels = map[string]bool{
	"For": true, "Reduce": true, "Map": true,
}

func runParallelpurity(p *Pass) {
	info := p.Pkg.Info
	p.walkFiles(func(f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee, kind := resolveCallee(info, call)
			if kind != callStatic || callee.Pkg() == nil {
				return true
			}
			if !strings.HasSuffix(callee.Pkg().Path(), "internal/parallel") || !parallelKernels[callee.Name()] {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					checkKernelClosure(info, "parallel."+callee.Name(), lit, p)
				}
			}
			return true
		})
	})
}

// checkKernelClosure scans one closure literal passed to a parallel
// kernel for impurities.
func checkKernelClosure(info *types.Info, kernel string, lit *ast.FuncLit, p *Pass) {
	// local reports whether obj is declared inside the closure itself
	// (parameter or body local); everything else — enclosing-function
	// locals, receivers, package-level state — is captured shared state.
	local := func(obj types.Object) bool {
		return obj != nil && obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End()
	}
	capturedRoot := func(x ast.Expr) *ast.Ident {
		id := rootIdent(x)
		if id == nil || id.Name == "_" {
			return nil
		}
		if v, ok := info.Uses[id].(*types.Var); ok && !local(v) {
			return id
		}
		return nil
	}
	containsLocal := func(x ast.Expr) bool {
		found := false
		ast.Inspect(x, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && local(info.Uses[id]) {
				found = true
			}
			return !found
		})
		return found
	}
	checkWrite := func(target ast.Expr) {
		switch e := ast.Unparen(target).(type) {
		case *ast.Ident:
			if id := capturedRoot(e); id != nil {
				p.Reportf(e.Pos(), "closure passed to %s writes captured variable %s; results become schedule-dependent — confine each index's output to its own slot", kernel, id.Name)
			}
		case *ast.IndexExpr:
			if id := capturedRoot(e.X); id != nil && !containsLocal(e.Index) {
				p.Reportf(e.Pos(), "closure passed to %s writes %s at an index not derived from the closure's own variables; overlapping slots race across chunks", kernel, id.Name)
			}
		case *ast.StarExpr:
			if id := capturedRoot(e.X); id != nil {
				p.Reportf(e.Pos(), "closure passed to %s writes through captured pointer %s; results become schedule-dependent", kernel, id.Name)
			}
		case *ast.SelectorExpr:
			if id := capturedRoot(e); id != nil {
				p.Reportf(e.Pos(), "closure passed to %s writes a field of captured %s; results become schedule-dependent", kernel, id.Name)
			}
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				checkWrite(lhs)
			}
		case *ast.IncDecStmt:
			checkWrite(n.X)
		case *ast.CallExpr:
			checkNondet(info, kernel, lit, local, n, p)
		}
		return true
	})
}

// checkNondet flags calls to nondeterministic APIs inside a kernel
// closure: the wall clock, and math/rand state shared across chunks. A
// *rand.Rand constructed inside the closure (one seeded source per
// chunk) is the sanctioned pattern and is not flagged.
func checkNondet(info *types.Info, kernel string, lit *ast.FuncLit, local func(types.Object) bool, call *ast.CallExpr, p *Pass) {
	callee, kind := resolveCallee(info, call)
	if kind != callStatic || callee.Pkg() == nil {
		return
	}
	switch callee.Pkg().Path() {
	case "time":
		switch callee.Name() {
		case "Now", "Since", "Until", "Sleep":
			p.Reportf(call.Pos(), "closure passed to %s calls time.%s; the wall clock makes kernel results schedule-dependent", kernel, callee.Name())
		}
	case "math/rand", "math/rand/v2":
		sig, _ := callee.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			// Method on a Rand/Source value: fine when the receiver is
			// closure-local (per-chunk seeded source), shared state otherwise.
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if id := rootIdent(sel.X); id != nil && local(info.Uses[id]) {
					return
				}
			}
			p.Reportf(call.Pos(), "closure passed to %s calls %s on a captured source; chunks race on its state — construct a seeded source inside the closure", kernel, callee.Name())
			return
		}
		if strings.HasPrefix(callee.Name(), "New") {
			return // constructors (New, NewSource, ...) are deterministic
		}
		p.Reportf(call.Pos(), "closure passed to %s calls %s.%s (process-global source); draws depend on scheduling — construct a seeded source inside the closure", kernel, callee.Pkg().Path(), callee.Name())
	}
}

// rootIdent unwraps selectors, indexing, stars and parens down to the
// base identifier of an lvalue-ish expression, or nil.
func rootIdent(x ast.Expr) *ast.Ident {
	for {
		switch e := x.(type) {
		case *ast.Ident:
			return e
		case *ast.ParenExpr:
			x = e.X
		case *ast.SelectorExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.StarExpr:
			x = e.X
		default:
			return nil
		}
	}
}

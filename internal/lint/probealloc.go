package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// ProbeAlloc enforces the probe fabric's zero-allocation contract
// statically. The telemetry layer promises that attaching a probe costs
// the engine scalar calls only — no per-event heap traffic — and
// benchmarks guard that promise (BenchmarkEngineProbeOverhead,
// TestEngineSteadyStateZeroAlloc). Benchmarks catch regressions after the
// fact; this analyzer refuses them at review time.
//
// Two kinds of function are checked:
//
//   - probe callback methods (OnStep, OnDistanceOp, OnCongestRound,
//     OnFleetDelivery) on any type the facts pass identifies as a probe
//     implementation;
//   - functions annotated //lint:hotpath (the engine step loop and
//     friends).
//
// Inside a checked body, heap-escaping composite literals, map/slice
// literals, make/new, append, fmt calls, string concatenation, and
// function literals are diagnostics, as is a call into another analyzed
// package whose facts mark the callee as allocating. Deliberate
// allocations (e.g. telemetry.Recorder's amortized series appends — it is
// the offline manifest recorder, not an engine-side counter) are recorded in
// the committed spaavet baseline or waived in place with //lint:probealloc.
var ProbeAlloc = &analysis.Analyzer{
	Name: "probealloc",
	Doc: "flags allocations (composite literals, fmt, string concat, append, " +
		"closures) in probe callback methods and //lint:hotpath functions",
	Run: runProbeAlloc,
}

func runProbeAlloc(pass *analysis.Pass) error {
	pkgPath := ""
	if pass.Pkg != nil {
		pkgPath = pass.Pkg.Path()
	}
	facts := pass.Facts().Package(pkgPath)
	if facts == nil {
		// Driver never ran the facts pass (or the package is out of
		// pattern); compute locally so fixtures and partial runs still work.
		facts = analysis.ComputeFacts(pkgPath, pass.Fset, pass.Files, pass.Pkg, pass.TypesInfo)
	}

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			why, checked := checkedFunc(facts, fn)
			if !checked {
				continue
			}
			for _, site := range analysis.AllocSites(fn.Body, pass.TypesInfo) {
				pass.Report(site.Pos, "%s must not allocate: %s", why, site.What)
			}
			reportAllocCalls(pass, fn, why)
		}
	}
	return nil
}

// checkedFunc decides whether fn is held to the zero-allocation contract
// and describes why for diagnostics.
func checkedFunc(facts *analysis.PackageFacts, fn *ast.FuncDecl) (why string, checked bool) {
	name := funcDeclKey(fn)
	if facts.IsHotPath(name) {
		return "hot path " + name, true
	}
	if fn.Recv == nil {
		return "", false
	}
	recv := receiverTypeName(fn)
	if recv == "" {
		return "", false
	}
	iface := analysis.ProbeInterfaceFor(fn.Name.Name)
	if iface == "" {
		return "", false
	}
	for _, m := range facts.ProbeMethodsOf(recv) {
		if m == fn.Name.Name {
			return "probe method " + recv + "." + fn.Name.Name + " (implements " + iface + ")", true
		}
	}
	return "", false
}

// reportAllocCalls flags calls from a checked body into functions of other
// analyzed packages whose facts record allocation — the cross-package half
// of the contract. Unresolvable callees (interface methods, stdlib
// packages without facts) are silently skipped: no information is not a
// finding.
func reportAllocCalls(pass *analysis.Pass, fn *ast.FuncDecl, why string) {
	store := pass.Facts()
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // already reported as a closure allocation
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(pass, call)
		if callee == nil || callee.Pkg() == nil || pass.Pkg != nil && callee.Pkg() == pass.Pkg {
			return true
		}
		calleeFacts := store.Package(callee.Pkg().Path())
		if calleeFacts == nil {
			return true
		}
		key := callee.Name()
		if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
			if recv := namedRecv(sig); recv != "" {
				key = recv + "." + callee.Name()
			}
		}
		if what, allocates := calleeFacts.AllocIn(key); allocates {
			pass.Report(call.Pos(), "%s must not allocate: calls %s.%s, which allocates (%s)",
				why, callee.Pkg().Name(), key, what)
		}
		return true
	})
}

// calleeFunc resolves a call's static target, or nil for interface and
// indirect calls.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			// Interface method values have no body to have facts about.
			if types.IsInterface(sel.Recv()) {
				return nil
			}
		}
		id = fun.Sel
	default:
		return nil
	}
	f, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return f
}

// namedRecv returns the bare receiver type name of a method signature.
func namedRecv(sig *types.Signature) string {
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// receiverTypeName returns the bare receiver type name of a method decl.
func receiverTypeName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok {
		t = idx.X
	}
	if ident, ok := t.(*ast.Ident); ok {
		return ident.Name
	}
	return ""
}

// funcDeclKey mirrors the facts pass's function key ("Func" or
// "Type.Method").
func funcDeclKey(fn *ast.FuncDecl) string {
	if recv := receiverTypeName(fn); recv != "" {
		return recv + "." + fn.Name.Name
	}
	return fn.Name.Name
}

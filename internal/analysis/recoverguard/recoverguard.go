// Package recoverguard enforces the panic-containment discipline of the
// long-running packages: a goroutine launched by a library must not be
// able to take the process down, so every `go` statement has to route
// through a panic-capturing boundary.
//
// A go statement is accepted when (library packages only — package main
// is exempt, as are test files):
//
//  1. It launches a function literal that installs a panic-capturing
//     defer: a deferred function literal whose body calls recover(), or
//     a deferred call into the panicsafe package.
//  2. It launches a same-package named function or method whose body
//     installs such a defer.
//  3. It launches a function from the panicsafe package itself.
//  4. It is annotated `//stsk:allow-bare-go` — reserved for bounded
//     fan-outs (graph coloring, the Barrier reference runner) whose
//     panics must surface to the caller rather than be contained.
//
// Everything else is a diagnostic: the goroutine would crash the daemon
// on the first kernel or plumbing panic it meets.
package recoverguard

import (
	"go/ast"
	"go/types"
	"strings"

	"stsk/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "recoverguard",
	Doc:  "every library go statement must launch through a panic-capturing wrapper (//stsk:allow-bare-go to opt out)",
	Run:  run,
}

func run(pass *framework.Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	// Index the package's own function declarations so rule 2 can look a
	// launched callee's body up by its types object.
	decls := make(map[types.Object]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
					decls[obj] = fd
				}
			}
		}
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		lines := framework.DirectiveLines(pass.Fset, f)
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if framework.AllowedAt(lines, pass.Fset, g.Pos(), framework.DirAllowBareGo) {
				return true
			}
			if guardedLaunch(pass, decls, g.Call) {
				return true
			}
			pass.Reportf(g.Pos(), "go statement without a panic-capturing wrapper: launch via panicsafe, install a deferred recover, or annotate //stsk:allow-bare-go")
			return true
		})
	}
	return nil
}

// guardedLaunch reports whether the go statement's callee contains (or
// is) a panic-capturing boundary.
func guardedLaunch(pass *framework.Pass, decls map[types.Object]*ast.FuncDecl, call *ast.CallExpr) bool {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return hasRecoverDefer(pass, fn.Body)
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[fn]; obj != nil {
			if fromPanicsafe(obj) {
				return true
			}
			if fd, ok := decls[obj]; ok {
				return hasRecoverDefer(pass, fd.Body)
			}
		}
	case *ast.SelectorExpr:
		if obj := pass.TypesInfo.Uses[fn.Sel]; obj != nil {
			if fromPanicsafe(obj) {
				return true
			}
			if fd, ok := decls[obj]; ok {
				return hasRecoverDefer(pass, fd.Body)
			}
		}
	}
	return false
}

// hasRecoverDefer reports whether the function body installs a
// panic-capturing defer at any nesting level of its own statements
// (nested function literals guard only themselves, so they are not
// descended into except as the deferred call's own callee).
func hasRecoverDefer(pass *framework.Pass, body *ast.BlockStmt) bool {
	guarded := false
	ast.Inspect(body, func(n ast.Node) bool {
		if guarded {
			return false
		}
		switch s := n.(type) {
		case *ast.FuncLit:
			return false // its defers protect it, not the launched goroutine
		case *ast.DeferStmt:
			switch fun := ast.Unparen(s.Call.Fun).(type) {
			case *ast.FuncLit:
				if callsRecover(pass, fun.Body) {
					guarded = true
				}
			case *ast.SelectorExpr:
				if obj := pass.TypesInfo.Uses[fun.Sel]; obj != nil && fromPanicsafe(obj) {
					guarded = true
				}
			}
			return false
		}
		return true
	})
	return guarded
}

// callsRecover reports whether the deferred literal's body calls the
// recover builtin (directly, not inside a further nested literal).
func callsRecover(pass *framework.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[id]; obj != nil {
				if b, ok := obj.(*types.Builtin); ok && b.Name() == "recover" {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// fromPanicsafe reports whether the object lives in the panicsafe
// package (any module's copy — the fixture package is plain "panicsafe").
func fromPanicsafe(obj types.Object) bool {
	pkg := obj.Pkg()
	if pkg == nil {
		return false
	}
	return pkg.Path() == "panicsafe" || strings.HasSuffix(pkg.Path(), "/panicsafe")
}

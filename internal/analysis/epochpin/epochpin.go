// Package epochpin enforces the copy-on-write value-epoch discipline of
// the solve layer: every dispatch pins the current epoch exactly once and
// threads that snapshot through the whole sweep, so a numeric
// refactorization (Values.Swap) can never tear an in-flight solve — each
// solve is entirely old-epoch or entirely new-epoch.
//
// Statically that means, per function: at most one epoch load (a call to
// Values.Current/Structure/Version or to the underlying `cur` atomic's
// Load), never inside a loop, and never after a dispatch (an offer call,
// which hands a call's share to idle helpers, or a channel send) — a load
// after dispatch could observe a different epoch than the work already in
// flight. Function literals
// are independent scopes. Streams that deliberately re-pin per dispatched
// element annotate the load with `//stsk:allow-epoch-repin`. Test files
// are exempt (they poll epochs in loops on purpose).
package epochpin

import (
	"go/ast"
	"go/token"
	"go/types"

	"stsk/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "epochpin",
	Doc:  "enforce one epoch load per function, outside loops, before dispatch",
	Run:  run,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		lines := framework.DirectiveLines(pass.Fset, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if framework.HasFuncDirective(fd, framework.DirAllowEpochRepin) {
				continue
			}
			checkScope(pass, lines, fd.Body)
		}
	}
	return nil
}

// scope accumulates the epoch loads and dispatch points of one function
// body, excluding nested function literals (checked as their own scopes).
type scope struct {
	loads    []load
	dispatch token.Pos // earliest dispatch position, or NoPos
	inner    []*ast.FuncLit
}

type load struct {
	pos    token.Pos
	inLoop bool
}

func checkScope(pass *framework.Pass, lines map[int][]string, body ast.Node) {
	sc := collect(pass, body)
	reported := func(pos token.Pos) bool {
		return framework.AllowedAt(lines, pass.Fset, pos, framework.DirAllowEpochRepin)
	}
	for i, ld := range sc.loads {
		switch {
		case reported(ld.pos):
		case ld.inLoop:
			pass.Reportf(ld.pos, "epoch load inside a loop: pin the epoch once before the loop (//stsk:allow-epoch-repin to re-pin deliberately)")
		case i > 0:
			pass.Reportf(ld.pos, "second epoch load in one function: a solve must pin exactly one epoch")
		case sc.dispatch != token.NoPos && ld.pos > sc.dispatch:
			pass.Reportf(ld.pos, "epoch load after dispatch: the epoch must be pinned before work is submitted")
		}
	}
	for _, fl := range sc.inner {
		checkScope(pass, lines, fl.Body)
	}
}

func collect(pass *framework.Pass, body ast.Node) *scope {
	sc := &scope{dispatch: token.NoPos}
	var loopDepth int
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.FuncLit:
			sc.inner = append(sc.inner, n)
			return
		case *ast.ForStmt, *ast.RangeStmt:
			loopDepth++
			defer func() { loopDepth-- }()
		case *ast.SendStmt:
			if sc.dispatch == token.NoPos || n.Pos() < sc.dispatch {
				sc.dispatch = n.Pos()
			}
		case *ast.CallExpr:
			if isEpochLoad(pass, n) {
				sc.loads = append(sc.loads, load{pos: n.Pos(), inLoop: loopDepth > 0})
			} else if isDispatch(n) {
				if sc.dispatch == token.NoPos || n.Pos() < sc.dispatch {
					sc.dispatch = n.Pos()
				}
			}
		}
		// Recurse over children without entering nested scopes twice.
		ast.Inspect(n, func(child ast.Node) bool {
			if child == nil || child == n {
				return child == n
			}
			walk(child)
			return false
		})
	}
	walk(body)
	return sc
}

// isEpochLoad recognises the epoch accessors: a method call named
// Current, Structure or Version on a type named Values, or a Load on a
// field named cur of such a type (`v.cur.Load()`).
func isEpochLoad(pass *framework.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Current", "Structure", "Version":
		return isValuesType(pass.TypesInfo.Types[sel.X].Type)
	case "Load":
		inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
		if !ok || inner.Sel.Name != "cur" {
			return false
		}
		return isValuesType(pass.TypesInfo.Types[inner.X].Type)
	}
	return false
}

func isValuesType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Values"
}

// isDispatch recognises the dispatch boundary: offering a call's share to
// the idle helpers via offer (channel sends are caught separately).
func isDispatch(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name == "offer"
	case *ast.Ident:
		return fun.Name == "offer"
	}
	return false
}

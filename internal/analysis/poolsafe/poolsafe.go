// Package poolsafe checks the lifetime discipline of pooled objects
// (DESIGN.md §9). The hot path recycles jEntry/repOp/repCommit records,
// trace spans, filestore transactions, and kernel events through free
// lists; a pooled object handed back with putX/Release — or appended to a
// *Free list — is immediately eligible for reuse, so any surviving alias
// is a use-after-free that manifests as cross-op state corruption, not a
// crash. The analyzer simulates each function body, resolving release
// points through the driver's interprocedural summaries, and flags:
//
//   - use-after-release: any mention of a released expression (or a field
//     path under it) after the release, before reassignment;
//   - retention: a released expression that was earlier stored into a
//     field, slice, map, or package-level variable (other than a *Free
//     free list) or captured by a closure — the stored alias outlives the
//     release.
//
// Release points are: appends to fields whose name ends in "free"; any
// call whose callee's interprocedural summary (driver facts, DESIGN.md
// §14) says it releases or retains the argument — cross-package, any
// number of calls deep, and through a generic receiver such as
// sim.FreeList's Put, whose append to its free field is such a release; same-package unexported put*/release*/free*
// helpers (their first pooled-pointer argument, never the *sim.Proc);
// zero-argument Release() methods (their receiver); and (*sync.Pool).Put.
package poolsafe

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/driver"
)

// Analyzer implements the poolsafe check.
var Analyzer = &driver.Analyzer{
	Name: "poolsafe",
	Doc: "pooled objects must not be used after Release/Put/put*, and must " +
		"not be retained in fields, slices, or closures that outlive the " +
		"release (DESIGN.md §9)",
	Run: run,
}

func run(pass *driver.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c := &checker{pass: pass, escapes: map[string][]token.Pos{}}
				st := state{released: map[string]token.Pos{}}
				c.walkStmts(fd.Body.List, &st)
			}
		}
	}
	return nil
}

type state struct {
	released map[string]token.Pos // expression text -> release position
}

func (s *state) clone() state {
	out := state{released: make(map[string]token.Pos, len(s.released))}
	for k, v := range s.released {
		out.released[k] = v
	}
	return out
}

type checker struct {
	pass *driver.Pass
	// escapes records, per function, where each candidate expression was
	// stored into something that outlives the frame.
	escapes map[string][]token.Pos
}

// walkStmts simulates the list in order. Branch bodies run on clones of
// the state and are discarded: a release on one branch must not poison
// the fall-through path (conservative, misses release-in-branch bugs).
func (c *checker) walkStmts(list []ast.Stmt, st *state) {
	for _, s := range list {
		c.walkStmt(s, st)
	}
}

func (c *checker) walkStmt(s ast.Stmt, st *state) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		c.walkStmts(s.List, st)
	case *ast.LabeledStmt:
		c.walkStmt(s.Stmt, st)
	case *ast.IfStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, st)
		}
		c.checkUses(s.Cond, st)
		b := st.clone()
		c.walkStmt(s.Body, &b)
		if s.Else != nil {
			b = st.clone()
			c.walkStmt(s.Else, &b)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, st)
		}
		c.checkUses(s.Cond, st)
		b := st.clone()
		c.walkStmt(s.Body, &b)
	case *ast.RangeStmt:
		c.checkUses(s.X, st)
		b := st.clone()
		c.walkStmt(s.Body, &b)
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, st)
		}
		c.checkUses(s.Tag, st)
		for _, cc := range s.Body.List {
			b := st.clone()
			c.walkStmts(cc.(*ast.CaseClause).Body, &b)
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range s.Body.List {
			b := st.clone()
			c.walkStmts(cc.(*ast.CaseClause).Body, &b)
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			b := st.clone()
			c.walkStmts(cc.(*ast.CommClause).Body, &b)
		}
	case *ast.AssignStmt:
		// An LHS that is exactly a released expression starts a new
		// lifetime (including the `op.tr = nil` alias-clearing idiom)
		// rather than using the old value; everything else (RHS, a field
		// path under a released expression, index LHS) is a use.
		for _, e := range s.Rhs {
			c.checkUses(e, st)
		}
		for _, l := range s.Lhs {
			lu := ast.Unparen(l)
			if _, bare := lu.(*ast.Ident); bare {
				continue
			}
			if sel, ok := lu.(*ast.SelectorExpr); ok {
				if _, wasReleased := st.released[types.ExprString(sel)]; wasReleased {
					continue
				}
			}
			c.checkUses(l, st)
		}
		c.recordEscapes(s)
		c.recordReleases(s, st)
		c.clearReassigned(s, st)
	default:
		c.checkUsesStmt(s, st)
		c.recordEscapesStmt(s)
		c.recordReleasesStmt(s, st)
	}
}

// --- use-after-release ---

func (c *checker) checkUsesStmt(s ast.Stmt, st *state) {
	ast.Inspect(s, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			c.checkUses(e, st)
			return false
		}
		return true
	})
}

// checkUses reports mentions of released expressions within e (including
// inside func literals: capturing a freed object is still a use).
func (c *checker) checkUses(e ast.Expr, st *state) {
	if e == nil || len(st.released) == 0 {
		return
	}
	reported := map[string]bool{}
	ast.Inspect(e, func(n ast.Node) bool {
		var s string
		switch n := n.(type) {
		case *ast.Ident, *ast.SelectorExpr:
			s = types.ExprString(n.(ast.Expr))
		default:
			return true
		}
		for key, rel := range st.released {
			if (s == key || strings.HasPrefix(s, key+".")) && !reported[key] {
				reported[key] = true
				c.pass.Reportf(n.Pos(),
					"use of %s after it was released to its pool at %s; pooled objects must not be touched after Release/Put (DESIGN.md §9)",
					s, c.pass.Fset.Position(rel))
			}
		}
		return true
	})
}

// clearReassigned drops released/escape tracking for variables that are
// wholly reassigned (`e = o.jeFree.Get()` starts a new lifetime).
func (c *checker) clearReassigned(s *ast.AssignStmt, st *state) {
	for _, lhs := range s.Lhs {
		var root string
		switch l := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			root = l.Name
		case *ast.SelectorExpr:
			root = types.ExprString(l)
		default:
			continue
		}
		for key := range st.released {
			if key == root || strings.HasPrefix(key, root+".") {
				delete(st.released, key)
			}
		}
		for key := range c.escapes {
			if key == root || strings.HasPrefix(key, root+".") {
				delete(c.escapes, key)
			}
		}
	}
}

// --- retention (escape-before-release) ---

func (c *checker) recordEscapesStmt(s ast.Stmt) {
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			c.recordEscapes(n)
			return false
		case *ast.FuncLit:
			c.recordCaptures(n)
			return false
		}
		return true
	})
}

// recordEscapes notes pooled-pointer candidates stored into fields,
// slices, maps, or package-level variables. Stores into free-list fields
// (name ending "free") are the pool mechanism itself and are exempt.
func (c *checker) recordEscapes(s *ast.AssignStmt) {
	for i, lhs := range s.Lhs {
		if i >= len(s.Rhs) && len(s.Rhs) != 1 {
			break
		}
		rhs := s.Rhs[min(i, len(s.Rhs)-1)]
		if !c.outlivesFrame(lhs) {
			// Still scan RHS func literals for captures.
			ast.Inspect(rhs, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					c.recordCaptures(fl)
					return false
				}
				return true
			})
			continue
		}
		ast.Inspect(rhs, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				c.recordCaptures(n)
				return false
			case *ast.SelectorExpr:
				// `x.f = ev.t` reads a scalar through ev; only the full
				// selector escaping as a pooled pointer retains an alias,
				// so do not descend into the base expression.
				if c.pooledCandidate(n) {
					c.escapes[types.ExprString(n)] = append(c.escapes[types.ExprString(n)], n.Pos())
				}
				return false
			case *ast.Ident:
				if c.pooledCandidate(n) {
					c.escapes[n.Name] = append(c.escapes[n.Name], n.Pos())
				}
			}
			return true
		})
	}
}

// outlivesFrame reports whether assigning to lhs stores beyond the current
// frame: a struct field, a slice/map element, or a package-level variable.
func (c *checker) outlivesFrame(lhs ast.Expr) bool {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if isFreeListField(lhs.Sel.Name) {
			return false
		}
		if sel, ok := c.pass.TypesInfo.Selections[lhs]; ok && sel.Kind() == types.FieldVal {
			return true
		}
		// Qualified package-level var (pkg.Var).
		if v, ok := c.pass.TypesInfo.Uses[lhs.Sel].(*types.Var); ok && v.Parent() == v.Pkg().Scope() {
			return true
		}
	case *ast.IndexExpr:
		return true
	case *ast.StarExpr:
		return false // *e = T{} resets through the pointer; no new alias
	case *ast.Ident:
		if v, ok := c.pass.TypesInfo.Uses[lhs].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true
		}
	}
	return false
}

// recordCaptures treats every pooled-pointer expression mentioned in a
// func literal as escaping into the closure.
func (c *checker) recordCaptures(fl *ast.FuncLit) {
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident, *ast.SelectorExpr:
			e := n.(ast.Expr)
			if c.pooledCandidate(e) {
				c.escapes[types.ExprString(e)] = append(c.escapes[types.ExprString(e)], e.Pos())
			}
		}
		return true
	})
}

// pooledCandidate reports whether e could denote a pooled record: a
// pointer to a named struct, excluding the simulation kernel's own types.
func (c *checker) pooledCandidate(e ast.Expr) bool {
	tv, ok := c.pass.TypesInfo.Types[e]
	if !ok {
		return false
	}
	ptr, ok := tv.Type.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
		return false
	}
	// The executing process/kernel is threaded through every call; it is
	// never pooled.
	if driver.NamedIs(named, "sim", "Proc") || driver.NamedIs(named, "sim", "Kernel") {
		return false
	}
	return true
}

// --- releases ---

func (c *checker) recordReleasesStmt(s ast.Stmt, st *state) {
	ast.Inspect(s, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			_ = fl
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			c.recordReleaseCall(call, st)
		}
		return true
	})
}

// recordReleases handles both call releases in the RHS and the free-list
// append idiom `x.fooFree = append(x.fooFree, v)`.
func (c *checker) recordReleases(s *ast.AssignStmt, st *state) {
	for i, lhs := range s.Lhs {
		sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
		if !ok || !isFreeListField(sel.Sel.Name) || i >= len(s.Rhs) {
			continue
		}
		call, ok := ast.Unparen(s.Rhs[min(i, len(s.Rhs)-1)]).(*ast.CallExpr)
		if !ok {
			continue
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
			continue
		}
		for _, arg := range call.Args[1:] {
			if c.pooledCandidate(arg) {
				c.markReleased(arg, st)
			}
		}
	}
	c.recordReleasesStmt(s, st)
}

func (c *checker) recordReleaseCall(call *ast.CallExpr, st *state) {
	fn := driver.CalleeFunc(c.pass.TypesInfo, call)
	if fn == nil {
		return
	}
	// (*sync.Pool).Put(x)
	if fn.Name() == "Put" && driver.NamedIs(driver.RecvNamed(fn), "sync", "Pool") {
		for _, arg := range call.Args {
			if c.pooledCandidate(arg) {
				c.markReleased(arg, st)
			}
		}
		return
	}
	// Zero-argument Release() method: the receiver goes back to its pool.
	if fn.Name() == "Release" && len(call.Args) == 0 {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && c.pooledCandidate(sel.X) {
			c.markReleased(sel.X, st)
		}
		return
	}
	// Interprocedural: the callee's summary records which of its parameters
	// it may release or retain — any number of calls deep, in any module
	// package (driver facts, DESIGN.md §14). Retentions are recorded first
	// so that a callee that both stores and frees an argument reports the
	// surviving alias.
	if facts := c.pass.Summaries.Facts(driver.IDOf(fn)); facts != nil {
		resolve := func(idx int) ast.Expr {
			if idx == driver.RecvIdx {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					return sel.X
				}
				return nil
			}
			if idx >= 0 && idx < len(call.Args) {
				return call.Args[idx]
			}
			return nil
		}
		for _, idx := range facts.RetainsParams {
			if arg := resolve(idx); arg != nil && c.pooledCandidate(arg) {
				e := ast.Unparen(arg)
				key := types.ExprString(e)
				c.escapes[key] = append(c.escapes[key], e.Pos())
			}
		}
		released := false
		for _, idx := range facts.ReleasesParams {
			if arg := resolve(idx); arg != nil && c.pooledCandidate(arg) {
				c.markReleased(arg, st)
				released = true
			}
		}
		if released {
			return
		}
	}
	// Heuristic fallback: a same-package unexported put*/release*/free*
	// helper recycles its first pooled-pointer argument even when its body
	// yields no summarizable release (e.g. hand-rolled pool internals).
	if fn.Pkg() != c.pass.Pkg || fn.Exported() || !isReleaseName(fn.Name()) {
		return
	}
	for _, arg := range call.Args {
		if c.pooledCandidate(arg) {
			c.markReleased(arg, st)
			return
		}
	}
}

// markReleased records the release and reports retention if the same
// expression escaped earlier in this function.
func (c *checker) markReleased(e ast.Expr, st *state) {
	key := types.ExprString(ast.Unparen(e))
	for _, esc := range c.escapes[key] {
		c.pass.Reportf(esc,
			"pooled object %s is stored here but released to its pool at %s; the stored alias outlives the release (DESIGN.md §9)",
			key, c.pass.Fset.Position(e.Pos()))
	}
	delete(c.escapes, key)
	st.released[key] = e.Pos()
}

// isFreeListField matches the free-list naming convention (jeFree,
// ropFree, trFree, free, ...).
func isFreeListField(name string) bool {
	return strings.HasSuffix(strings.ToLower(name), "free")
}

// isReleaseName matches unexported pool-recycle helper names.
func isReleaseName(name string) bool {
	l := strings.ToLower(name)
	return l == "put" || l == "free" || l == "release" ||
		strings.HasPrefix(l, "put") || strings.HasPrefix(l, "release") ||
		strings.HasPrefix(l, "recycle") || strings.HasPrefix(l, "free")
}

// Package lockorder statically enforces the simulator's lock hierarchy
// (DESIGN.md §9): the PG/shard lock is the outermost lock, the filestore
// dirty-list mutex nests inside it, and the kvstore mutex is innermost.
// Acquiring against that order — or acquiring the same class twice — is
// how the DES deadlocks (sim.Mutex is not reentrant and a parked process
// never wakes). It also enforces the completion-batching rule that a
// dynamic callback (a pooled completion, an unlock hook) never runs with
// two locks held: the §3.1 batching design works precisely because each
// batch runs its callbacks under exactly one shard lock.
//
// The check simulates each function body intraprocedurally and treats a
// call to any function that acquires a lock class — resolved through the
// driver's interprocedural summaries (DESIGN.md §14), so the acquisition
// may be any number of calls deep and in any module package — as an
// acquisition at the call site.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/driver"
)

// Analyzer implements the lockorder check.
var Analyzer = &driver.Analyzer{
	Name: "lockorder",
	Doc: "sim.Mutex acquisitions must follow the documented order " +
		"PG/shard -> filestore dirty -> kvstore, never nest the same class, " +
		"and never invoke a callback with two locks held (DESIGN.md §9)",
	Run: run,
}

type heldLock struct {
	class int
	expr  string
	pos   token.Pos
}

type checker struct {
	pass     *driver.Pass
	varClass map[*types.Var]int
}

func run(pass *driver.Pass) error {
	c := &checker{
		pass:     pass,
		varClass: map[*types.Var]int{},
	}
	// Pass 1: variable provenance (lock := locks.Get(pg)). Call-site
	// acquisition facts come from the driver's interprocedural summaries.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok {
				c.trackAssign(as)
			}
			return true
		})
	}
	// Pass 2: simulate acquisition order through each function body.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				var held []heldLock
				c.walkStmts(fd.Body.List, &held)
			}
		}
	}
	return nil
}

// trackAssign records lock-class provenance for simple assignments like
// `lock := eng.locks.Get(pg)`.
func (c *checker) trackAssign(as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		cls := c.classify(as.Rhs[i])
		if cls == driver.LockNone {
			continue
		}
		if v, ok := c.pass.TypesInfo.Defs[id].(*types.Var); ok {
			c.varClass[v] = cls
		} else if v, ok := c.pass.TypesInfo.Uses[id].(*types.Var); ok {
			c.varClass[v] = cls
		}
	}
}

// classify maps an expression denoting a mutex to its lock class, via
// the driver's shared classification plus this checker's provenance.
func (c *checker) classify(e ast.Expr) int {
	return driver.ClassifyLock(c.pass.TypesInfo, c.varClass, e)
}

// lockCall returns (receiver, "Lock"|"Unlock") when call is a sim.Mutex
// Lock/Unlock method call, else ("", "").
func (c *checker) lockCall(call *ast.CallExpr) (ast.Expr, string) {
	return driver.MutexLockCall(c.pass.TypesInfo, call)
}

// walkStmts simulates the statement list in order, tracking held locks.
// Branch bodies run on copies of the held set and are discarded afterward:
// critical sections are expected to be balanced within a branch, and an
// unbalanced branch must not poison the analysis of the fall-through path.
func (c *checker) walkStmts(list []ast.Stmt, held *[]heldLock) {
	for _, st := range list {
		c.walkStmt(st, held)
	}
}

func (c *checker) walkStmt(st ast.Stmt, held *[]heldLock) {
	switch st := st.(type) {
	case *ast.BlockStmt:
		c.walkStmts(st.List, held)
	case *ast.LabeledStmt:
		c.walkStmt(st.Stmt, held)
	case *ast.IfStmt:
		if st.Init != nil {
			c.walkStmt(st.Init, held)
		}
		c.scanExpr(st.Cond, held)
		branch := copyHeld(*held)
		c.walkStmt(st.Body, &branch)
		if st.Else != nil {
			branch = copyHeld(*held)
			c.walkStmt(st.Else, &branch)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			c.walkStmt(st.Init, held)
		}
		if st.Cond != nil {
			c.scanExpr(st.Cond, held)
		}
		branch := copyHeld(*held)
		c.walkStmt(st.Body, &branch)
	case *ast.RangeStmt:
		c.scanExpr(st.X, held)
		branch := copyHeld(*held)
		c.walkStmt(st.Body, &branch)
	case *ast.SwitchStmt:
		if st.Init != nil {
			c.walkStmt(st.Init, held)
		}
		if st.Tag != nil {
			c.scanExpr(st.Tag, held)
		}
		for _, cc := range st.Body.List {
			branch := copyHeld(*held)
			c.walkStmts(cc.(*ast.CaseClause).Body, &branch)
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range st.Body.List {
			branch := copyHeld(*held)
			c.walkStmts(cc.(*ast.CaseClause).Body, &branch)
		}
	case *ast.SelectStmt:
		for _, cc := range st.Body.List {
			branch := copyHeld(*held)
			c.walkStmts(cc.(*ast.CommClause).Body, &branch)
		}
	case *ast.DeferStmt:
		// `defer mu.Unlock(p)` pairs with the acquisition for the rest of
		// the function; treat it as releasing for tracking purposes.
		if recv, kind := c.lockCall(st.Call); kind == "Unlock" {
			c.release(recv, held)
			return
		}
		c.scanExpr(st.Call, held)
	case *ast.GoStmt:
		// The spawned body runs as its own process with no inherited
		// locks; its func literal is scanned with an empty held set.
		c.scanExpr(st.Call, held)
	case *ast.ExprStmt:
		c.scanExpr(st.X, held)
	case *ast.AssignStmt:
		c.trackAssign(st)
		for _, e := range st.Rhs {
			c.scanExpr(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			c.scanExpr(e, held)
		}
	case *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.BranchStmt, *ast.EmptyStmt:
		ast.Inspect(st, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				c.scanExpr(e, held)
				return false
			}
			return true
		})
	}
}

// scanExpr processes every call in e (in syntactic order), updating and
// checking the held set. Func literal bodies are walked with a fresh held
// set: in this codebase they run later, as spawned processes or queued
// callbacks, not inline under the caller's locks.
func (c *checker) scanExpr(e ast.Expr, held *[]heldLock) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			var fresh []heldLock
			c.walkStmts(fl.Body.List, &fresh)
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		c.checkCall(call, held)
		return true
	})
}

func (c *checker) checkCall(call *ast.CallExpr, held *[]heldLock) {
	if recv, kind := c.lockCall(call); kind != "" {
		cls := c.classify(recv)
		if kind == "Unlock" {
			c.release(recv, held)
			return
		}
		c.acquire(call, cls, recv, held)
		return
	}
	fn := driver.CalleeFunc(c.pass.TypesInfo, call)
	if fn == nil {
		// Dynamic call: a func-typed variable, field, or parameter —
		// i.e. a callback. Exclude conversions and builtins.
		if c.isDynamicCall(call) && len(*held) >= 2 {
			c.pass.Reportf(call.Pos(),
				"callback invoked while holding %d locks (%s); completion callbacks must run under at most one lock (DESIGN.md §9)",
				len(*held), heldNames(*held))
		}
		return
	}
	// Interprocedural call summary: treat every lock class the callee may
	// acquire — any number of calls deep, in any module package — as an
	// acquisition at the call site (driver facts, DESIGN.md §14).
	facts := c.pass.Summaries.Facts(driver.IDOf(fn))
	if facts == nil || len(*held) == 0 {
		return
	}
	name := fn.Name()
	if fn.Pkg() != nil && fn.Pkg() != c.pass.Pkg {
		name = fn.Pkg().Name() + "." + name
	}
	for _, cls := range facts.Acquires {
		for _, h := range *held {
			if h.class == driver.LockNone || cls == driver.LockNone {
				continue
			}
			if h.class == cls {
				c.pass.Reportf(call.Pos(),
					"call to %s acquires the %s while it is already held (acquired %s); sim.Mutex is not reentrant (DESIGN.md §9)",
					name, driver.LockClassName[cls], c.pos(h.pos))
			} else if h.class > cls {
				c.pass.Reportf(call.Pos(),
					"call to %s acquires the %s while holding the %s; documented order is PG/shard -> filestore dirty -> kvstore (DESIGN.md §9)",
					name, driver.LockClassName[cls], driver.LockClassName[h.class])
			}
		}
	}
}

func (c *checker) acquire(call *ast.CallExpr, cls int, recv ast.Expr, held *[]heldLock) {
	for _, h := range *held {
		if h.class == driver.LockNone || cls == driver.LockNone {
			continue
		}
		if h.class == cls {
			c.pass.Reportf(call.Pos(),
				"acquiring the %s while already holding it (acquired %s); sim.Mutex is not reentrant (DESIGN.md §9)",
				driver.LockClassName[cls], c.pos(h.pos))
		} else if h.class > cls {
			c.pass.Reportf(call.Pos(),
				"lock order violation: acquiring the %s while holding the %s; documented order is PG/shard -> filestore dirty -> kvstore (DESIGN.md §9)",
				driver.LockClassName[cls], driver.LockClassName[h.class])
		}
	}
	*held = append(*held, heldLock{class: cls, expr: types.ExprString(recv), pos: call.Pos()})
}

// release removes the most recent matching acquisition: by expression
// text first, then by class.
func (c *checker) release(recv ast.Expr, held *[]heldLock) {
	expr := types.ExprString(recv)
	for i := len(*held) - 1; i >= 0; i-- {
		if (*held)[i].expr == expr {
			*held = append((*held)[:i], (*held)[i+1:]...)
			return
		}
	}
	cls := c.classify(recv)
	for i := len(*held) - 1; i >= 0; i-- {
		if (*held)[i].class == cls {
			*held = append((*held)[:i], (*held)[i+1:]...)
			return
		}
	}
}

// isDynamicCall reports whether call invokes a func value (not a declared
// function, method, builtin, conversion, or immediately-invoked literal).
func (c *checker) isDynamicCall(call *ast.CallExpr) bool {
	fun := ast.Unparen(call.Fun)
	if _, ok := fun.(*ast.FuncLit); ok {
		return false
	}
	tv, ok := c.pass.TypesInfo.Types[fun]
	if !ok || tv.IsType() || tv.IsBuiltin() {
		return false
	}
	_, isSig := tv.Type.Underlying().(*types.Signature)
	return isSig
}

func (c *checker) pos(p token.Pos) string {
	pos := c.pass.Fset.Position(p)
	return pos.String()
}

func heldNames(held []heldLock) string {
	s := ""
	for i, h := range held {
		if i > 0 {
			s += ", "
		}
		if n, ok := driver.LockClassName[h.class]; ok {
			s += n
		} else {
			s += h.expr
		}
	}
	return s
}

func copyHeld(h []heldLock) []heldLock {
	out := make([]heldLock, len(h))
	copy(out, h)
	return out
}

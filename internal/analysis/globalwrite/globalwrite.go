// Package globalwrite machine-checks the point-isolation contract of
// DESIGN.md §11: simulated code owns only the state of its own kernel.
// Figure and qa harnesses run independent simulations concurrently in one
// process (sim.RunParallel), so a simulated process or event callback that
// writes package-level state races against every other point in flight.
//
// A function body is a simulation context when it takes a *sim.Proc
// (simulated-process code runs only inside some kernel) or when it is a
// func literal handed to the kernel's scheduling entry points
// (At/After/AfterCall/Go). Inside such a context the analyzer flags writes
// to package-level variables, direct or transitive: it uses the driver's
// interprocedural summaries (DESIGN.md §14), so a write any number of calls
// deep — in any module package — surfaces at the call site.
//
// The audit is scoped to the packages whose code runs inside a kernel:
// sim, osd, cluster (by package name, so analysistest fixtures exercise the
// production configuration).
package globalwrite

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/driver"
)

// auditedPkgs are the package names whose code runs inside simulation
// contexts (DESIGN.md §11).
var auditedPkgs = []string{"sim", "osd", "cluster"}

// Analyzer implements the globalwrite check.
var Analyzer = &driver.Analyzer{
	Name: "globalwrite",
	Doc: "simulated processes and scheduled callbacks must not write " +
		"package-level state, directly or through any call chain: figure " +
		"points run concurrently in one process (DESIGN.md §11)",
	Run: run,
}

func run(pass *driver.Pass) error {
	if !driver.PkgNamed(pass.Pkg, auditedPkgs...) {
		return nil
	}
	c := &checker{pass: pass}
	// Simulation-context bodies: *sim.Proc functions plus scheduling
	// callbacks not already nested inside one.
	var roots []contextRoot
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if c.hasProcParam(fd) {
				roots = append(roots, contextRoot{name: fd.Name.Name, body: fd.Body})
				continue
			}
			fdName := fd.Name.Name
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				for _, arg := range call.Args {
					if fl, ok := ast.Unparen(arg).(*ast.FuncLit); ok && c.isSchedulingCall(call) {
						roots = append(roots, contextRoot{name: fdName + " (scheduled callback)", body: fl.Body})
					}
				}
				return true
			})
		}
	}
	for _, r := range roots {
		c.checkContext(r)
	}
	return nil
}

type contextRoot struct {
	name string
	body *ast.BlockStmt
}

type checker struct {
	pass *driver.Pass
}

// hasProcParam reports whether fd takes a *sim.Proc anywhere in its
// signature — the marker of simulated-process execution context.
func (c *checker) hasProcParam(fd *ast.FuncDecl) bool {
	for _, field := range fd.Type.Params.List {
		t := c.pass.TypesInfo.TypeOf(field.Type)
		if p, ok := t.(*types.Pointer); ok {
			if named, ok := p.Elem().(*types.Named); ok && driver.NamedIs(named, "sim", "Proc") {
				return true
			}
		}
	}
	return false
}

// checkContext walks one simulation-context body, flagging global writes
// (direct and via callee summaries).
func (c *checker) checkContext(r contextRoot) {
	ast.Inspect(r.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				c.checkWrite(r, lhs)
			}
		case *ast.IncDecStmt:
			c.checkWrite(r, n.X)
		case *ast.CallExpr:
			c.checkContextCall(r, n)
		}
		return true
	})
}

// checkWrite flags a direct write to package-level state.
func (c *checker) checkWrite(r contextRoot, lhs ast.Expr) {
	if g := driver.GlobalWritten(c.pass.TypesInfo, lhs); g != "" {
		c.pass.Reportf(lhs.Pos(),
			"%s writes package-level state %s from a simulation context; concurrently running figure points race on it (DESIGN.md §11)",
			r.name, g)
	}
}

// checkContextCall flags transitive global writes at one call site inside
// a simulation context.
func (c *checker) checkContextCall(r contextRoot, call *ast.CallExpr) {
	fn := driver.CalleeFunc(c.pass.TypesInfo, call)
	if fn == nil {
		return
	}
	facts := c.pass.Summaries.Facts(driver.IDOf(fn))
	if facts == nil || len(facts.WritesGlobals) == 0 {
		return
	}
	name := fn.Name()
	if fn.Pkg() != nil && fn.Pkg() != c.pass.Pkg {
		name = fn.Pkg().Name() + "." + name
	}
	c.pass.Reportf(call.Pos(),
		"%s calls %s, which writes package-level state (%s) from a simulation context; concurrently running figure points race on it (DESIGN.md §11)",
		r.name, name, strings.Join(facts.WritesGlobals, ", "))
}

// isSchedulingCall reports whether call hands a callback to the kernel
// (At/After/AfterCall/Go) — the points where a func literal becomes a
// simulation-context body.
func (c *checker) isSchedulingCall(call *ast.CallExpr) bool {
	fn := driver.CalleeFunc(c.pass.TypesInfo, call)
	if fn == nil || !driver.NamedIs(driver.RecvNamed(fn), "sim", "Kernel") {
		return false
	}
	switch fn.Name() {
	case "At", "After", "AfterCall", "Go":
		return true
	}
	return false
}

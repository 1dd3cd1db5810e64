package driver

// Interprocedural layer: a cross-package call graph and per-function
// summaries ("facts"), computed bottom-up over `go list -deps` order so
// that when a package is summarized every module-internal dependency is
// already final. Analyzers consume the facts through Pass.Summaries to
// propagate lock-held, pooled-alias, and global-write information through
// cross-package calls instead of stopping at package boundaries
// (DESIGN.md §14).
//
// The model is deliberately flow-insensitive at function granularity:
// a fact says what a function *may* do anywhere in its body (including
// func literals it creates — they may run later, which is the
// conservative direction for every client analyzer). Facts are keyed by
// stable qualified names, never go/types object identity, so a package
// summarized from source composes with the same package imported from
// export data. Dynamic calls (func values, interface methods) have no
// callee facts; each client analyzer documents how it treats that edge.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// FuncID is the stable cross-package identity of a function:
// "path.Name" for plain functions, "path.(Recv).Name" or
// "path.(*Recv).Name" for methods.
type FuncID string

// IDOf returns fn's FuncID, or "" for nil/builtin/universe functions.
// Generic instantiations are normalized to their origin.
func IDOf(fn *types.Func) FuncID {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	fn = fn.Origin()
	path := fn.Pkg().Path()
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if p, pok := t.(*types.Pointer); pok {
			t = p.Elem()
			ptr = "*"
		}
		if named, nok := t.(*types.Named); nok {
			return FuncID(path + ".(" + ptr + named.Obj().Name() + ")." + fn.Name())
		}
		// Interface method: the receiver is the interface type itself.
		return FuncID(path + "." + fn.Name())
	}
	return FuncID(path + "." + fn.Name())
}

// Lock classes, outermost-first (DESIGN.md §9). Shared by the lockorder
// analyzer and the summary layer so acquisition facts cross package
// boundaries with their rank intact.
const (
	LockNone  = 0
	LockPG    = 1 // core.ShardLocks shard (PG) mutex
	LockDirty = 2 // filestore dirty-list mutex (field dirtyMu)
	LockKV    = 3 // kvstore LSM mutex (field mu)
)

// LockClassName names each lock class for diagnostics.
var LockClassName = map[int]string{
	LockPG:    "PG/shard lock",
	LockDirty: "filestore dirty-list mutex",
	LockKV:    "kvstore mutex",
}

// RecvIdx addresses a method receiver in ReleasesParams/RetainsParams;
// plain parameters use their 0-based index.
const RecvIdx = -1

// FuncFacts is one function's interprocedural summary.
type FuncFacts struct {
	// Acquires lists the lock classes the function may acquire anywhere
	// in its body or (transitively) in its module-internal callees.
	Acquires []int `json:"acquires,omitempty"`
	// ReleasesParams lists parameter positions (RecvIdx for the
	// receiver) the function may release to an object pool.
	ReleasesParams []int `json:"releases,omitempty"`
	// RetainsParams lists parameter positions the function may store
	// into a location that outlives the call (field, slice/map element,
	// package-level variable) — free-list fields excluded.
	RetainsParams []int `json:"retains,omitempty"`
	// WritesGlobals lists qualified package-level variables
	// ("path.Var") the function may write, directly or transitively.
	// Writes made by func init() are excluded: initialization happens
	// before any simulated execution starts.
	WritesGlobals []string `json:"writes_globals,omitempty"`
	// Calls lists the module-internal functions the function statically
	// calls (the call-graph edges the transitive facts were closed
	// over).
	Calls []FuncID `json:"calls,omitempty"`
}

// PkgFacts is one package's persisted summary.
type PkgFacts struct {
	Path string `json:"path"`
	// Hash identifies the inputs the summary was computed from: the
	// package's source bytes plus the hashes of its module-internal
	// dependencies' summaries (see factscache.go).
	Hash  string                `json:"hash"`
	Funcs map[FuncID]*FuncFacts `json:"funcs"`
}

// Summaries is the cross-package fact table for one Load.
type Summaries struct {
	pkgs map[string]*PkgFacts // by import path
}

// NewSummaries returns an empty fact table.
func NewSummaries() *Summaries {
	return &Summaries{pkgs: map[string]*PkgFacts{}}
}

// Facts returns the summary for id, or nil when the function is outside
// the summarized module (stdlib, dynamic, interface method).
func (s *Summaries) Facts(id FuncID) *FuncFacts {
	if s == nil || id == "" {
		return nil
	}
	path := string(id)
	// The package path is everything before the ".Name" / ".(Recv).Name"
	// suffix; find it by probing the table (import paths never contain
	// "(" and the function name never contains "/").
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			break
		}
		if path[i] == '.' {
			if pf, ok := s.pkgs[path[:i]]; ok {
				return pf.Funcs[id]
			}
		}
	}
	return nil
}

// Pkg returns the summary of the package at path, or nil.
func (s *Summaries) Pkg(path string) *PkgFacts {
	if s == nil {
		return nil
	}
	return s.pkgs[path]
}

// Paths returns the summarized package paths, sorted.
func (s *Summaries) Paths() []string {
	var out []string
	for p := range s.pkgs {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

func (s *Summaries) add(pf *PkgFacts) { s.pkgs[pf.Path] = pf }

// --- fact computation ---

// callSite records one static call for the fixpoint: the callee and, for
// each callee parameter position the caller passes one of its own
// parameters to, that mapping.
type callSite struct {
	callee FuncID
	// argOf maps callee position (RecvIdx or 0-based) to the caller's
	// parameter position when the argument is a bare parameter
	// identifier.
	argOf map[int]int
}

// funcSeed is the local (intraprocedural) portion of one function's facts
// plus its call sites, the fixpoint's starting point.
type funcSeed struct {
	facts FuncFacts
	calls []callSite
}

// ComputeFacts builds pkg's summary against the already-final summaries
// of its dependencies in s. The caller adds the result to s.
func ComputeFacts(pkg *Package, s *Summaries) *PkgFacts {
	fc := &factsCollector{pkg: pkg}
	seeds := map[FuncID]*funcSeed{}
	order := []FuncID{}
	for _, f := range pkg.Syntax {
		fc.trackFileAssigns(f)
	}
	for _, f := range pkg.Syntax {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			id := IDOf(fn)
			seeds[id] = fc.seed(fd, fn)
			order = append(order, id)
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	// Fixpoint: propagate callee facts into callers until stable.
	// Cross-package callees are final in s; same-package callees converge
	// because every set only grows and is bounded.
	cur := map[FuncID]*FuncFacts{}
	for id, sd := range seeds {
		f := sd.facts
		cur[id] = &f
	}
	lookup := func(id FuncID) *FuncFacts {
		if f, ok := cur[id]; ok {
			return f
		}
		return s.Facts(id)
	}
	for changed := true; changed; {
		changed = false
		for _, id := range order {
			f := cur[id]
			for _, cs := range seeds[id].calls {
				cf := lookup(cs.callee)
				if cf == nil {
					continue
				}
				for _, cls := range cf.Acquires {
					if addInt(&f.Acquires, cls) {
						changed = true
					}
				}
				for _, g := range cf.WritesGlobals {
					if addStr(&f.WritesGlobals, g) {
						changed = true
					}
				}
				for _, idx := range cf.ReleasesParams {
					if p, ok := cs.argOf[idx]; ok && addInt(&f.ReleasesParams, p) {
						changed = true
					}
				}
				for _, idx := range cf.RetainsParams {
					if p, ok := cs.argOf[idx]; ok && addInt(&f.RetainsParams, p) {
						changed = true
					}
				}
			}
		}
	}
	pf := &PkgFacts{Path: pkg.PkgPath, Funcs: map[FuncID]*FuncFacts{}}
	for id, f := range cur {
		sort.Ints(f.Acquires)
		sort.Ints(f.ReleasesParams)
		sort.Ints(f.RetainsParams)
		sort.Strings(f.WritesGlobals)
		sortIDs(f.Calls)
		pf.Funcs[id] = f
	}
	return pf
}

type factsCollector struct {
	pkg      *Package
	varClass map[*types.Var]int // lock provenance: lock := locks.Get(pg)
}

// trackFileAssigns records lock-class provenance for simple assignments
// anywhere in the file, mirroring the lockorder analyzer's tracking.
func (fc *factsCollector) trackFileAssigns(f *ast.File) {
	if fc.varClass == nil {
		fc.varClass = map[*types.Var]int{}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			cls := fc.classifyLock(as.Rhs[i])
			if cls == LockNone {
				continue
			}
			if v, ok := fc.pkg.TypesInfo.Defs[id].(*types.Var); ok {
				fc.varClass[v] = cls
			} else if v, ok := fc.pkg.TypesInfo.Uses[id].(*types.Var); ok {
				fc.varClass[v] = cls
			}
		}
		return true
	})
}

// ClassifyLock maps an expression denoting a mutex to its lock class
// (LockNone when unknown), using info for resolution and provenance from
// vars (may be nil).
func ClassifyLock(info *types.Info, vars map[*types.Var]int, e ast.Expr) int {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return ClassifyLock(info, vars, e.X)
		}
	case *ast.CallExpr:
		// core.(*ShardLocks).Get(shard) hands out a PG/shard lock.
		fn := CalleeFunc(info, e)
		if fn != nil && fn.Name() == "Get" && NamedIs(RecvNamed(fn), "core", "ShardLocks") {
			return LockPG
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			pkg := recvPkgName(sel.Recv())
			switch {
			case e.Sel.Name == "dirtyMu" && pkg == "filestore":
				return LockDirty
			case e.Sel.Name == "mu" && pkg == "kvstore":
				return LockKV
			}
		}
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok && vars != nil {
			return vars[v]
		}
	}
	return LockNone
}

func (fc *factsCollector) classifyLock(e ast.Expr) int {
	return ClassifyLock(fc.pkg.TypesInfo, fc.varClass, e)
}

// MutexLockCall returns (receiver, "Lock"|"Unlock") when call is a
// sim.Mutex Lock/Unlock method call, else (nil, "").
func MutexLockCall(info *types.Info, call *ast.CallExpr) (ast.Expr, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	name := sel.Sel.Name
	if name != "Lock" && name != "Unlock" {
		return nil, ""
	}
	fn := CalleeFunc(info, call)
	if fn == nil || !NamedIs(RecvNamed(fn), "sim", "Mutex") {
		return nil, ""
	}
	return sel.X, name
}

// seed computes fd's intraprocedural facts and call sites.
func (fc *factsCollector) seed(fd *ast.FuncDecl, fn *types.Func) *funcSeed {
	sd := &funcSeed{}
	info := fc.pkg.TypesInfo
	sig := fn.Type().(*types.Signature)
	isInit := fd.Recv == nil && fd.Name.Name == "init"

	// paramIdx resolves a bare identifier to the function's parameter
	// position (RecvIdx for the receiver), or (0, false).
	paramIdx := func(e ast.Expr) (int, bool) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return 0, false
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok {
			return 0, false
		}
		if sig.Recv() != nil && v == sig.Recv() {
			return RecvIdx, true
		}
		for i := 0; i < sig.Params().Len(); i++ {
			if v == sig.Params().At(i) {
				return i, true
			}
		}
		return 0, false
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if recv, kind := MutexLockCall(info, n); kind == "Lock" {
				if cls := fc.classifyLock(recv); cls != LockNone {
					addInt(&sd.facts.Acquires, cls)
				}
				return true
			}
			callee := CalleeFunc(info, n)
			if callee == nil {
				return true
			}
			id := IDOf(callee)
			if id == "" {
				return true
			}
			cs := callSite{callee: id, argOf: map[int]int{}}
			csig, _ := callee.Type().(*types.Signature)
			if csig != nil && csig.Recv() != nil {
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					if p, ok := paramIdx(sel.X); ok {
						cs.argOf[RecvIdx] = p
					}
				}
			}
			for i, arg := range n.Args {
				if p, ok := paramIdx(arg); ok {
					cs.argOf[i] = p
				}
			}
			sd.calls = append(sd.calls, cs)
			if strings.HasPrefix(string(id), modulePrefixOf(fc.pkg.PkgPath)) {
				addID(&sd.facts.Calls, id)
			}
			// Primitive pool release: (*sync.Pool).Put(param).
			if callee.Name() == "Put" && NamedIs(RecvNamed(callee), "sync", "Pool") {
				for _, arg := range n.Args {
					if p, ok := paramIdx(arg); ok {
						addInt(&sd.facts.ReleasesParams, p)
					}
				}
			}
		case *ast.AssignStmt:
			fc.seedAssign(n, sd, paramIdx, isInit)
		case *ast.IncDecStmt:
			if !isInit {
				if g := globalWritten(info, n.X); g != "" {
					addStr(&sd.facts.WritesGlobals, g)
				}
			}
		}
		return true
	})
	return sd
}

// seedAssign harvests global writes, free-list releases, and param
// retention from one assignment.
func (fc *factsCollector) seedAssign(as *ast.AssignStmt, sd *funcSeed, paramIdx func(ast.Expr) (int, bool), isInit bool) {
	info := fc.pkg.TypesInfo
	for i, lhs := range as.Lhs {
		if !isInit {
			if g := globalWritten(info, lhs); g != "" {
				addStr(&sd.facts.WritesGlobals, g)
			}
		}
		var rhs ast.Expr
		if i < len(as.Rhs) {
			rhs = as.Rhs[i]
		} else if len(as.Rhs) == 1 {
			rhs = as.Rhs[0]
		}
		if rhs == nil {
			continue
		}
		sel, isSel := ast.Unparen(lhs).(*ast.SelectorExpr)
		// Free-list append `x.fooFree = append(x.fooFree, param)`: the
		// appended parameter is released to its pool.
		if isSel && isFreeField(sel.Sel.Name) {
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 1 {
					for _, arg := range call.Args[1:] {
						if p, ok := paramIdx(arg); ok && pooledParamType(info, arg) {
							addInt(&sd.facts.ReleasesParams, p)
						}
					}
				}
			}
			continue
		}
		// Retention: a bare parameter stored into a field, element, or
		// package-level variable outlives the call.
		if storeOutlivesCall(info, lhs) {
			if p, ok := paramIdx(rhs); ok && pooledParamType(info, rhs) {
				addInt(&sd.facts.RetainsParams, p)
			}
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 1 {
					for _, arg := range call.Args[1:] {
						if p, ok := paramIdx(arg); ok && pooledParamType(info, arg) {
							addInt(&sd.facts.RetainsParams, p)
						}
					}
				}
			}
		}
	}
}

// GlobalWritten returns the qualified name ("path.Var") of the
// package-level variable the assignment target lhs writes (directly or
// through a selector/index chain rooted at it), or "". Exported for the
// globalwrite analyzer, which applies it only inside simulated-process
// and scheduled-callback bodies; the summary layer applies it to every
// function.
func GlobalWritten(info *types.Info, lhs ast.Expr) string {
	return globalWritten(info, lhs)
}

// globalWritten returns the qualified name of the package-level variable
// the assignment target lhs writes (directly or through a selector/index
// chain rooted at it), or "".
func globalWritten(info *types.Info, lhs ast.Expr) string {
	for {
		switch e := ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr:
			// A qualified package-level var (pkg.Var) resolves via Sel.
			if v, ok := info.Uses[e.Sel].(*types.Var); ok && isGlobalVar(v) {
				return v.Pkg().Path() + "." + v.Name()
			}
			lhs = e.X
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		case *ast.Ident:
			if v, ok := info.Uses[e].(*types.Var); ok && isGlobalVar(v) {
				return v.Pkg().Path() + "." + v.Name()
			}
			return ""
		default:
			return ""
		}
	}
}

func isGlobalVar(v *types.Var) bool {
	return v != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// storeOutlivesCall reports whether assigning to lhs stores beyond the
// callee's frame: a struct field, slice/map element, or package-level
// variable (free-list fields excluded — they are the pool itself).
func storeOutlivesCall(info *types.Info, lhs ast.Expr) bool {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if isFreeField(lhs.Sel.Name) {
			return false
		}
		if sel, ok := info.Selections[lhs]; ok && sel.Kind() == types.FieldVal {
			return true
		}
		if v, ok := info.Uses[lhs.Sel].(*types.Var); ok && isGlobalVar(v) {
			return true
		}
	case *ast.IndexExpr:
		return true
	case *ast.Ident:
		if v, ok := info.Uses[lhs].(*types.Var); ok && isGlobalVar(v) {
			return true
		}
	}
	return false
}

// pooledParamType reports whether e's type could denote a pooled record:
// a pointer to a named struct, excluding the kernel's own types.
func pooledParamType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
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
	return !NamedIs(named, "sim", "Proc") && !NamedIs(named, "sim", "Kernel")
}

// isFreeField matches the free-list naming convention (jeFree, ropFree,
// trFree, free, ...).
func isFreeField(name string) bool {
	return strings.HasSuffix(strings.ToLower(name), "free")
}

// modulePrefixOf returns the module prefix ("repro/") of an import path,
// i.e. everything up to and including the first slash — enough to keep
// call-graph edges module-internal without knowing the module name.
func modulePrefixOf(path string) string {
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i+1]
	}
	return path
}

func recvPkgName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Name()
}

func addInt(s *[]int, v int) bool {
	for _, x := range *s {
		if x == v {
			return false
		}
	}
	*s = append(*s, v)
	return true
}

func addStr(s *[]string, v string) bool {
	for _, x := range *s {
		if x == v {
			return false
		}
	}
	*s = append(*s, v)
	return true
}

func addID(s *[]FuncID, v FuncID) bool {
	for _, x := range *s {
		if x == v {
			return false
		}
	}
	*s = append(*s, v)
	return true
}

func sortIDs(s []FuncID) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

// Package unused finds functions and methods that no production code
// references. Code that no production path runs is a cost, not an asset:
// a function only tests reach is either deleted, with the tests that
// exercise only it, or kept with an annotation naming who needs it.
//
// A reference is anything the driver's Refs fact records (DESIGN.md §14):
// a call, a method value, a func value, or a use in a package-level
// variable initializer. Test files are never loaded, so their references
// do not count.
package unused

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/driver"
)

// Analyzer implements the unused check.
var Analyzer = &driver.Analyzer{
	Name: "unused",
	Doc: "a function or method declared in a non-test file must be referenced by " +
		"another non-test function of the module; the roots are main, init, " +
		"examples/ and methods that satisfy an interface (DESIGN.md §9)",
	Run: run,
}

// method names one interface method: its name, and for an unexported
// name the package it belongs to.
type method struct{ name, pkg string }

// stdInterfaces are the standard-library interfaces whose methods the
// standard library calls on module types: fmt.Stringer, error,
// sort.Interface (and heap.Interface, which adds Push and Pop),
// json.Marshaler and json.Unmarshaler.
var stdInterfaces = [][]method{
	{{name: "String"}},
	{{name: "Error"}},
	{{name: "Len"}, {name: "Less"}, {name: "Swap"}},
	{{name: "Len"}, {name: "Less"}, {name: "Swap"}, {name: "Push"}, {name: "Pop"}},
	{{name: "MarshalJSON"}},
	{{name: "UnmarshalJSON"}},
}

func run(pass *driver.Pass) error {
	// Without every importer loaded, the missing references would read
	// as findings.
	if !pass.ImportersLoaded || isExample(pass.PkgPath) {
		return nil
	}
	referenced := pass.Summaries.Referenced()
	satisfying := interfaceMethods(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Name.Name == "_" {
				continue
			}
			if fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main" && pass.Pkg.Name() == "main") {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			id := driver.IDOf(fn)
			if referenced[id] || satisfying[id] {
				continue
			}
			pass.Reportf(fd.Name.Pos(),
				"%s is referenced by no non-test code of the module; delete it, or keep it with //afvet:allow unused <who needs it>",
				strings.TrimPrefix(string(id), pass.PkgPath+"."))
		}
	}
	return nil
}

// isExample reports whether path lies under an examples directory, whose
// programs are roots.
func isExample(path string) bool {
	return strings.Contains("/"+path+"/", "/examples/")
}

// interfaceMethods returns the methods of pass's package that implement
// an interface method, for some named type of a loaded package: a method
// the type declares or one it promotes from an embedded field. The
// interfaces are the standard ones above and every named interface of
// the module reachable from the loaded packages. A type implements an
// interface when it has methods of all its names: signatures are not
// compared, which can only keep a method, never report one.
func interfaceMethods(pass *driver.Pass) map[driver.FuncID]bool {
	ifaces := append([][]method(nil), stdInterfaces...)
	prefix := pass.PkgPath
	if i := strings.IndexByte(prefix, '/'); i >= 0 {
		prefix = prefix[:i+1]
	}
	seen := map[string]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p.Path()] || !strings.HasPrefix(p.Path(), prefix) {
			return
		}
		seen[p.Path()] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			it, ok := tn.Type().Underlying().(*types.Interface)
			if !ok || it.NumMethods() == 0 {
				continue
			}
			var ms []method
			for i := 0; i < it.NumMethods(); i++ {
				ms = append(ms, methodOf(it.Method(i)))
			}
			ifaces = append(ifaces, ms)
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range pass.Loaded {
		visit(pkg.Types)
	}

	out := map[driver.FuncID]bool{}
	for _, pkg := range pass.Loaded {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			mset := types.NewMethodSet(types.NewPointer(tn.Type()))
			have := map[method]*types.Func{}
			for i := 0; i < mset.Len(); i++ {
				fn := mset.At(i).Obj().(*types.Func)
				have[methodOf(fn)] = fn
			}
		ifaces:
			for _, iface := range ifaces {
				for _, m := range iface {
					if have[m] == nil {
						continue ifaces
					}
				}
				for _, m := range iface {
					if fn := have[m]; fn.Pkg().Path() == pass.PkgPath {
						out[driver.IDOf(fn)] = true
					}
				}
			}
		}
	}
	return out
}

// methodOf names fn as an interface method would.
func methodOf(fn *types.Func) method {
	if fn.Exported() {
		return method{name: fn.Name()}
	}
	return method{name: fn.Name(), pkg: fn.Pkg().Path()}
}

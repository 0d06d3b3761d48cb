// Command reach lists the functions of the acache module that no program
// reaches, and exits 1 if any lies outside the keep-list below.
//
//	cd tools/reach && go run . ../..
//
// Roots: every main and init, every package-level initialiser, everything in
// benchmark/ (a caller, not a subject), and every exported function and
// method the root package offers (alias targets such as FaultInjector =
// fault.Injector included), over non-test files only — a function only tests
// call is reported. From the roots it follows every reference to a function;
// a method that satisfies an interface the program mentions, hands to the
// standard library, or that fmt and encoding/json look for at run time is
// reached once its receiver type is. Standard library only: go/types with
// the source importer, over the load order `go list -deps` gives.
package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// keep names what stays although nothing reaches it — a package, or one
// function as printed — and why.
var keep = map[string]string{
	"internal/fault":                   "fault-injection seam, reached only from tests (Options.fs, the chaos suite) by design",
	"internal/oracle":                  "naive reference implementation the tests compare against",
	"internal/cache.Cache.Each":        "what the tests of the consistency invariant (Def. 3.1) walk a cache with, in cache, join and core",
	"internal/cache.Cache.EachCounted": "the same for global consistency (Def. 6.1)",
}

// probed are the interfaces the standard library looks for by type assertion
// on values it is handed as `any`.
var probed = map[string][]string{
	"fmt":           {"Stringer", "GoStringer", "Formatter"},
	"encoding/json": {"Marshaler", "Unmarshaler"},
}

type listed struct {
	ImportPath, Dir, Name string
	GoFiles               []string
	Standard              bool
}

type fn struct {
	decl *ast.FuncDecl
	info *types.Info
}

type scan struct {
	fset   *token.FileSet
	pkgs   map[string]*types.Package // the module's, type-checked here
	std    types.Importer
	fns    map[*types.Func]fn
	ifaces map[string]*types.Interface
	live   map[*types.TypeName]bool
	reach  map[*types.Func]bool
	work   []*types.Func
}

func (s *scan) Import(path string) (*types.Package, error) {
	if p := s.pkgs[path]; p != nil {
		return p, nil
	}
	return s.std.Import(path)
}

func main() {
	root, err := filepath.Abs(append(os.Args, ".")[1])
	check(err)
	build.Default.CgoEnabled = false // the source importer would otherwise run cgo
	s := &scan{fset: token.NewFileSet(), pkgs: map[string]*types.Package{}, fns: map[*types.Func]fn{},
		ifaces: map[string]*types.Interface{}, live: map[*types.TypeName]bool{}, reach: map[*types.Func]bool{}}
	s.std = importer.ForCompiler(s.fset, "source", nil)

	var rootPkg string
	var roots []func()
	for i, dir := range []string{root, filepath.Join(root, "benchmark")} {
		for _, lp := range goList(dir) {
			if lp.Standard || s.pkgs[lp.ImportPath] != nil {
				continue
			}
			if lp.Dir == root {
				rootPkg = lp.ImportPath
			}
			roots = append(roots, s.load(lp, i == 1)...)
		}
	}
	for path, names := range probed {
		lib, err := s.std.Import(path)
		check(err)
		for _, name := range names {
			s.addIface(lib.Scope().Lookup(name).Type())
		}
	}
	// The public API: everything exported from the root package, and every
	// exported method of a type it exports, wherever the type is declared.
	scope := s.pkgs[rootPkg].Scope()
	for _, name := range scope.Names() {
		if !token.IsExported(name) {
			continue
		}
		switch obj := scope.Lookup(name).(type) {
		case *types.Func:
			s.mark(obj)
		case *types.TypeName:
			if named, ok := types.Unalias(obj.Type()).(*types.Named); ok {
				s.liveType(named.Obj())
				for _, m := range methodsOf(named) {
					if m.Exported() {
						s.mark(m)
					}
				}
			}
		}
	}
	for _, r := range roots {
		r()
	}
	for len(s.work) > 0 {
		f := s.fns[s.work[len(s.work)-1]]
		s.work = s.work[:len(s.work)-1]
		s.walk(f.decl, f.info)
	}

	var lines []string
	total, bad := 0, 0
	for obj, f := range s.fns {
		if s.reach[obj] {
			continue
		}
		start := f.decl.Pos()
		if f.decl.Doc != nil {
			start = f.decl.Doc.Pos()
		}
		at := s.fset.Position(f.decl.Pos())
		rel, _ := filepath.Rel(root, at.Filename)
		n := s.fset.Position(f.decl.End()).Line - s.fset.Position(start).Line + 1
		pkg := strings.TrimPrefix(obj.Pkg().Path(), rootPkg+"/")
		name := pkg + "." + obj.Name()
		if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			name = pkg + "." + t.(*types.Named).Obj().Name() + "." + obj.Name()
		}
		line := fmt.Sprintf("%s:%d %s %d", rel, at.Line, name, n)
		if keep[pkg] != "" || keep[name] != "" {
			line += " (kept)"
		} else {
			bad++
		}
		total += n
		lines = append(lines, line)
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
	fmt.Fprintf(os.Stderr, "reach: %d unreachable functions, %d lines; %d outside the keep-list\n", len(lines), total, bad)
	for what, why := range keep {
		fmt.Fprintf(os.Stderr, "reach: keeps %s: %s\n", what, why)
	}
	if bad > 0 {
		os.Exit(1)
	}
}

// load type-checks one package and returns its roots: main, init (every
// function when all is set) and the package-level declarations — initialisers
// call functions, type and var declarations make the types they name live.
func (s *scan) load(lp listed, all bool) []func() {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		check(err)
		files = append(files, f)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	pkg, err := (&types.Config{Importer: s}).Check(lp.ImportPath, s.fset, files, info)
	check(err)
	s.pkgs[lp.ImportPath] = pkg
	for _, tv := range info.Types {
		s.addIface(tv.Type)
	}
	for _, obj := range info.Uses {
		// An interface-typed parameter of a library function is an interface
		// the program hands values to (sort.Sort, heap.Push, flag.Var, …).
		if f, ok := obj.(*types.Func); ok && f.Pkg() != nil && s.pkgs[f.Pkg().Path()] == nil {
			params := f.Type().(*types.Signature).Params()
			for i := 0; i < params.Len(); i++ {
				s.addIface(params.At(i).Type())
			}
		}
	}
	var roots []func()
	for _, file := range files {
		for _, d := range file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				obj := info.Defs[d.Name].(*types.Func)
				s.fns[obj] = fn{d, info}
				if all || d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && lp.Name == "main") {
					roots = append(roots, func() { s.mark(obj) })
				}
			case *ast.GenDecl:
				roots = append(roots, func() { s.walk(d, info) })
			}
		}
	}
	return roots
}

func (s *scan) addIface(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
		s.ifaces[it.String()] = it
	}
}

func (s *scan) mark(f *types.Func) {
	f = f.Origin()
	if _, ours := s.fns[f]; ours && !s.reach[f] {
		s.reach[f] = true
		s.work = append(s.work, f)
	}
}

func (s *scan) walk(n ast.Node, info *types.Info) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			switch obj := info.Uses[id].(type) {
			case *types.Func:
				s.mark(obj)
			case *types.TypeName:
				s.liveType(obj)
			}
		}
		return true
	})
}

// liveType records that values of the type can exist, which reaches every
// method of it that some known interface could call.
func (s *scan) liveType(tn *types.TypeName) {
	named, ok := types.Unalias(tn.Type()).(*types.Named)
	if !ok || s.live[named.Obj()] || types.IsInterface(named) {
		return
	}
	s.live[named.Obj()] = true
	called := map[string]bool{}
	for _, it := range s.ifaces {
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			for i := 0; i < it.NumMethods(); i++ {
				called[it.Method(i).Name()] = true
			}
		}
	}
	for _, m := range methodsOf(named) {
		if called[m.Name()] {
			s.mark(m)
		}
	}
}

// methodsOf returns the methods of *T, promoted ones included.
func methodsOf(named *types.Named) []*types.Func {
	ms := types.NewMethodSet(types.NewPointer(named))
	out := make([]*types.Func, ms.Len())
	for i := range out {
		out[i] = ms.At(i).Obj().(*types.Func)
	}
	return out
}

// goList returns the packages under dir and their dependencies, dependencies
// first.
func goList(dir string) []listed {
	cmd := exec.Command("go", "list", "-deps", "-json=ImportPath,Dir,Name,GoFiles,Standard", "./...")
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	check(err)
	var pkgs []listed
	for dec := json.NewDecoder(strings.NewReader(string(out))); ; {
		var lp listed
		err := dec.Decode(&lp)
		if err == io.EOF {
			return pkgs
		}
		check(err)
		pkgs = append(pkgs, lp)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(2)
	}
}

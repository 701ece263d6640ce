// Command unreached holds the module to one rule: every exported function
// and method that a non-test file under internal/ declares is referenced
// by some non-test file of the module, or is on an allowlist that says why
// it stays.
//
// Usage:
//
//	go run ./tools/unreached [-allow file] [root]
//
// root defaults to the current directory and must hold the module's
// go.mod; -allow defaults to tools/unreached/allow.txt under root. Files
// are selected as for GOOS=linux GOARCH=amd64, so callers in
// platform-specific files count on any host. A use inside the function's
// own body does not count. A method also counts as reached when its
// receiver type implements an interface that declares a method of that
// name: an interface declared in a non-test file of the module, or one of
// stdInterfaces.
//
// The allowlist holds one "pkg.Func # reason" or "pkg.Type.Method #
// reason" per line; blank lines and lines starting with '#' are ignored.
// The exit status is non-zero, with one line per problem, when a finding
// is not on the list, when a listed name is reached or no longer
// declared, or when a line gives no reason.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// stdInterfaces are the standard-library interfaces through which the
// library calls the module's methods.
var stdInterfaces = [][2]string{
	{"", "error"}, {"fmt", "Stringer"}, {"sort", "Interface"},
	{"container/heap", "Interface"}, {"io", "Reader"}, {"io", "Writer"},
}

func main() {
	allow := flag.String("allow", "", "allowlist `file` (default root/tools/unreached/allow.txt)")
	flag.Parse()
	root := "."
	if flag.NArg() > 0 {
		root = flag.Arg(0)
	}
	if *allow == "" {
		*allow = filepath.Join(root, "tools", "unreached", "allow.txt")
	}
	problems, err := run(root, *allow)
	if err != nil {
		fmt.Fprintln(os.Stderr, "unreached:", err)
		os.Exit(1)
	}
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "unreached: %d problems\n", len(problems))
		os.Exit(1)
	}
}

// decl is one exported function or method declared under internal/.
type decl struct {
	pos      token.Position
	body     *ast.BlockStmt
	recv     types.Type // nil for a function
	reached  bool
	lineSeen bool // named by an allowlist line
}

// run type-checks the module at root and returns its problems, sorted.
func run(root, allowPath string) ([]string, error) {
	l, err := load(root)
	if err != nil {
		return nil, err
	}
	decls := map[*types.Func]*decl{}
	byName := map[string]*decl{}
	var ifaces []*types.Interface
	for _, si := range stdInterfaces {
		scope := types.Universe
		if si[0] != "" {
			pkg, err := l.std.Import(si[0])
			if err != nil {
				return nil, err
			}
			scope = pkg.Scope()
		}
		ifaces = append(ifaces, scope.Lookup(si[1]).Type().Underlying().(*types.Interface))
	}
	for path, p := range l.pkgs {
		for _, name := range p.types.Scope().Names() {
			if tn, ok := p.types.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
		if !strings.HasPrefix(path, l.modPath+"/internal/") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				dc := &decl{pos: l.fset.Position(fd.Pos()), body: fd.Body}
				name := p.types.Name() + "."
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					dc.recv = recv.Type()
					if ptr, ok := dc.recv.(*types.Pointer); ok {
						dc.recv = ptr.Elem()
					}
					name += dc.recv.(*types.Named).Obj().Name() + "."
				}
				decls[fn], byName[name+fn.Name()] = dc, dc
			}
		}
	}
	for _, p := range l.pkgs {
		for id, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				if dc := decls[fn.Origin()]; dc != nil && (dc.body == nil || id.Pos() < dc.body.Pos() || id.Pos() > dc.body.End()) {
					dc.reached = true
				}
			}
		}
	}
	for fn, dc := range decls {
		dc.reached = dc.reached || dc.recv != nil && implementsNamed(dc.recv, fn.Name(), ifaces)
	}

	problems, err := checkAllow(allowPath, byName)
	if err != nil {
		return nil, err
	}
	for name, dc := range byName {
		if !dc.reached && !dc.lineSeen {
			problems = append(problems, fmt.Sprintf("%s: %s is declared but no non-test file references it", dc.pos, name))
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// implementsNamed reports whether t or *t implements an interface of ifaces
// that declares a method called name.
func implementsNamed(t types.Type, name string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		for i := range it.NumMethods() {
			if it.Method(i).Name() == name && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
	}
	return false
}

// checkAllow reads the allowlist, marks every declaration it names and
// returns the problems of its lines.
func checkAllow(path string, byName map[string]*decl) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var problems []string
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, "#")
		name = strings.TrimSpace(name)
		dc := byName[name]
		switch {
		case strings.TrimSpace(reason) == "":
			problems = append(problems, fmt.Sprintf("%s:%d: %s has no reason", path, n, name))
		case dc == nil:
			problems = append(problems, fmt.Sprintf("%s:%d: %s is not declared; delete the line", path, n, name))
		case dc.reached:
			problems = append(problems, fmt.Sprintf("%s:%d: %s is reached; delete the line", path, n, name))
		}
		if dc != nil {
			dc.lineSeen = true
		}
	}
	return problems, sc.Err()
}

// loader type-checks the module's packages from source and imports the
// standard library from export data.
type loader struct {
	ctx           build.Context
	fset          *token.FileSet
	root, modPath string
	std           types.Importer
	pkgs          map[string]*pkg // by import path
}

type pkg struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// load checks every package directory below root, skipping testdata,
// vendor, hidden directories and nested modules.
func load(root string) (*loader, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := &loader{ctx: build.Default, fset: token.NewFileSet(), root: root, std: importer.Default(), pkgs: map[string]*pkg{}}
	l.ctx.GOOS, l.ctx.GOARCH, l.ctx.CgoEnabled = "linux", "amd64", false
	for _, line := range strings.Split(string(mod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			l.modPath = strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		path := l.modPath
		if rel, _ := filepath.Rel(root, dir); rel != "." {
			_, statErr := os.Stat(filepath.Join(dir, "go.mod"))
			if name := d.Name(); name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || statErr == nil {
				return filepath.SkipDir
			}
			path += "/" + filepath.ToSlash(rel)
		}
		_, err = l.Import(path)
		return err
	})
	return l, err
}

// Import implements types.Importer: a module package is parsed and
// checked once, from its non-test files; a directory without any yields
// a nil package.
func (l *loader) Import(path string) (*types.Package, error) {
	if path != l.modPath && !strings.HasPrefix(path, l.modPath+"/") {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p.types, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.modPath)))
	bp, err := l.ctx.ImportDir(dir, 0)
	if _, ok := err.(*build.NoGoError); ok || err == nil && len(bp.GoFiles) == 0 {
		return nil, nil
	} else if err != nil {
		return nil, err
	}
	p := &pkg{info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p.types, nil
}

// Command doclint enforces doc comments on exported identifiers. It walks
// the packages named on the command line (./... style patterns are resolved
// by walking the directory tree; testdata and _test.go files are skipped)
// and reports every exported top-level function, method, type, constant and
// variable that lacks one. For grouped const/var declarations a single doc
// comment on the block covers every name in it.
//
// Run from the module root, it also checks the code references of the
// design and operations documents (docFiles): every backticked Go file must
// exist and be long enough for a cited line, and every backticked selector,
// call or camelCase identifier must be declared by the module (see
// checkDocRefs).
//
// It exists because `go vet` does not check documentation and the container
// bakes in no external linters; `make check` runs it over the public facade
// and every internal package.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		args = []string{"./..."}
	}
	var dirs []string
	for _, a := range args {
		if strings.HasSuffix(a, "/...") {
			root := strings.TrimSuffix(a, "/...")
			if root == "." || root == "" {
				root = "."
			}
			err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if name == "testdata" || strings.HasPrefix(name, ".") && path != root {
					return filepath.SkipDir
				}
				dirs = append(dirs, path)
				return nil
			})
			if err != nil {
				fatalf("%v", err)
			}
		} else {
			dirs = append(dirs, a)
		}
	}

	bad := 0
	for _, dir := range dirs {
		bad += lintDir(dir)
	}
	stale := 0
	if _, err := os.Stat("go.mod"); err == nil {
		stale = checkDocRefs(".")
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d exported identifier(s) without doc comments\n", bad)
	}
	if stale > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d documentation reference(s) the code does not declare\n", stale)
	}
	if bad+stale > 0 {
		os.Exit(1)
	}
}

// lintDir parses one directory's package and reports undocumented exported
// identifiers, returning how many it found.
func lintDir(dir string) int {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		// Directories without Go files are fine; real syntax errors will
		// fail the build step of the same make target.
		return 0
	}
	bad := 0
	report := func(pos token.Pos, what, name string) {
		fmt.Printf("%s: undocumented exported %s %s\n", fset.Position(pos), what, name)
		bad++
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || !exportedReceiver(d) {
						continue
					}
					if d.Doc == nil {
						what := "function"
						if d.Recv != nil {
							what = "method"
						}
						report(d.Pos(), what, d.Name.Name)
					}
				case *ast.GenDecl:
					lintGenDecl(d, report)
				}
			}
		}
	}
	return bad
}

// lintGenDecl checks one const/var/type declaration. A doc comment on the
// declaration group covers every spec inside it; otherwise each exported
// spec needs its own.
func lintGenDecl(d *ast.GenDecl, report func(token.Pos, string, string)) {
	if d.Doc != nil {
		return
	}
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && s.Doc == nil && s.Comment == nil {
				report(s.Pos(), "type", s.Name.Name)
			}
		case *ast.ValueSpec:
			if s.Doc != nil || s.Comment != nil {
				continue
			}
			for _, n := range s.Names {
				if n.IsExported() {
					what := "variable"
					if d.Tok == token.CONST {
						what = "constant"
					}
					report(n.Pos(), what, n.Name)
				}
			}
		}
	}
}

// exportedReceiver reports whether a function's receiver (if any) is an
// exported type — methods on unexported types are not part of the package
// surface.
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return true
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "doclint: "+format+"\n", args...)
	os.Exit(1)
}

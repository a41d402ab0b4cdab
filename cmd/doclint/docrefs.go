package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"unicode"
)

// docFiles are the documents whose code references checkDocRefs verifies,
// relative to the module root. bench/README.md is left out: bench/ is a
// module of its own.
var docFiles = []string{"DESIGN.md", "docs/OPERATIONS.md", "README.md", "EXPERIMENTS.md"}

var (
	fence = regexp.MustCompile("(?s)```.*?```")
	span  = regexp.MustCompile("`([^`\n]+)`")
	// fileRef is a backticked source or document file, optionally with a
	// line: path.go, engine/fragment.go:399, EXPERIMENTS.md.
	fileRef = regexp.MustCompile(`^((?:[\w.-]+/)*[\w.-]+\.(?:go|md|json|sh|golden))(?::(\d+))?$`)
	// identRef is a backticked Go selector or call: pkg.Name, Type.Method,
	// Name(...), optionally dereferenced.
	identRef = regexp.MustCompile(`^\*?([A-Za-z]\w*(?:\.[A-Za-z]\w*)*)(\(.*\))?$`)
	// camelCase is a bare identifier no prose word looks like: an inner
	// capital after a lower-case run (WorkerClone, spillMu).
	camelCase = regexp.MustCompile(`^[A-Za-z][a-z0-9]+[A-Z]`)
	testName  = regexp.MustCompile(`^(Test|Benchmark|Fuzz|Example)[A-Z0-9_]`)
	goIdent   = regexp.MustCompile(`^[A-Za-z]\w*$`)
)

// tree is what the module declares, for resolving documentation references.
type tree struct {
	files map[string]string // slash path → file path, every file
	// decls holds the identifiers non-test Go files outside bench/ declare,
	// and the identifier-like string literals they hold (service names).
	decls map[string]bool
	tests map[string]bool // test functions _test.go files outside bench/ declare
	pkgs  map[string]bool // package names of the module
}

// loadTree parses every Go file under root.
func loadTree(root string) (*tree, error) {
	t := &tree{files: map[string]string{}, decls: map[string]bool{}, tests: map[string]bool{}, pkgs: map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator)))
		t.files[rel] = path
		if !strings.HasSuffix(path, ".go") || strings.HasPrefix(rel, "bench/") || strings.Contains(rel, "/testdata/") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
					t.tests[fd.Name.Name] = true
				}
			}
			return nil
		}
		t.pkgs[f.Name.Name] = true
		t.declare(f)
		return nil
	})
	return t, err
}

// declare records a file's top-level functions, methods, types, constants
// and variables, the fields and interface methods of its types, and its
// identifier-like string literals.
func (t *tree) declare(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil && goIdent.MatchString(s) {
				t.decls[s] = true
			}
		}
		return true
	})
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			t.decls[d.Name.Name] = true
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					t.decls[s.Name.Name] = true
					ast.Inspect(s.Type, func(n ast.Node) bool {
						if fl, ok := n.(*ast.FieldList); ok {
							for _, field := range fl.List {
								for _, name := range field.Names {
									t.decls[name.Name] = true
								}
							}
						}
						return true
					})
				case *ast.ValueSpec:
					for _, name := range s.Names {
						t.decls[name.Name] = true
					}
				}
			}
		}
	}
}

// isStdPackage reports whether name is the last element of a
// standard-library import path.
func isStdPackage(name string) bool {
	src := filepath.Join(build.Default.GOROOT, "src")
	if _, err := os.Stat(filepath.Join(src, name)); err == nil {
		return true
	}
	m, _ := filepath.Glob(filepath.Join(src, "*", name))
	return len(m) > 0
}

// checkDocRefs reports every backticked reference in the documents under
// root that the tree does not declare, returning how many it found.
func checkDocRefs(root string) int {
	t, err := loadTree(root)
	if err != nil {
		fatalf("%v", err)
	}
	bad := 0
	for _, doc := range docFiles {
		data, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			fatalf("%v", err)
		}
		// Fenced blocks are replaced by as many newlines, keeping line numbers.
		data = fence.ReplaceAllFunc(data, func(b []byte) []byte {
			return bytes.Repeat([]byte{'\n'}, bytes.Count(b, []byte{'\n'}))
		})
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range span.FindAllStringSubmatch(line, -1) {
				if why := t.resolve(m[1]); why != "" {
					fmt.Printf("%s:%d: `%s` %s\n", doc, i+1, m[1], why)
					bad++
				}
			}
		}
	}
	return bad
}

// resolve returns why ref does not resolve, or "" when it does or is not a
// code reference.
func (t *tree) resolve(ref string) string {
	if m := fileRef.FindStringSubmatch(ref); m != nil {
		return t.resolveFile(m[1], m[2])
	}
	m := identRef.FindStringSubmatch(ref)
	if m == nil || strings.Contains(m[1], "_") {
		return "" // prose, a command line, a metric name
	}
	parts := strings.Split(m[1], ".")
	switch {
	case len(parts) == 1 && testName.MatchString(parts[0]):
		if !t.tests[parts[0]] {
			return "names a test no _test.go file declares"
		}
		return ""
	case len(parts) == 1 && m[2] == "" && !camelCase.MatchString(parts[0]):
		return "" // a plain word
	case len(parts) == 1 && isUpper(parts[0]):
		return "" // an SQL function
	}
	first := parts[0]
	if len(parts) > 1 && !t.pkgs[first] && isStdPackage(first) {
		return "" // the standard library declares the rest
	}
	if !t.decls[first] && !(len(parts) > 1 && t.pkgs[first]) {
		return "names " + first + ", which no non-test Go file declares"
	}
	for _, p := range parts[1:] {
		if !t.decls[p] {
			return "names " + p + ", which no non-test Go file declares"
		}
	}
	return ""
}

// resolveFile checks a file reference: some Go file's path must end in
// path, and have at least line lines when a line is given.
func (t *tree) resolveFile(path, line string) string {
	if strings.HasPrefix(filepath.Base(path), "_") {
		return "" // a pattern such as _test.go
	}
	want, _ := strconv.Atoi(line)
	found := false
	for rel, full := range t.files {
		if rel != path && !strings.HasSuffix(rel, "/"+path) {
			continue
		}
		found = true
		data, err := os.ReadFile(full)
		if err == nil && bytes.Count(data, []byte{'\n'}) >= want {
			return ""
		}
	}
	if found {
		return "points past the end of the file"
	}
	return "names no file of the module"
}

func isUpper(s string) bool {
	for _, r := range s {
		if unicode.IsLower(r) {
			return false
		}
	}
	return true
}

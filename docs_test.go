// Package-level meta-tests: the documentation deliverable, enforced.
package main_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Every exported declaration in every non-test source file must carry a
// doc comment.
func TestEveryExportedItemDocumented(t *testing.T) {
	var missing []string
	err := filepath.Walk(".", func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() || !strings.HasSuffix(path, ".go") ||
			strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		report := func(name string, pos token.Pos) {
			missing = append(missing, path+": "+name+" ("+fset.Position(pos).String()+")")
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && d.Doc == nil {
					report("func "+d.Name.Name, d.Pos())
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
							report("type "+s.Name.Name, s.Pos())
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
								report("var/const "+n.Name, n.Pos())
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) > 0 {
		t.Errorf("%d exported items lack doc comments:\n  %s",
			len(missing), strings.Join(missing, "\n  "))
	}
}

// Struct fields of exported structs should be documented too; this is
// advisory (fields with self-evident names inside documented structs are
// acceptable), so the test only guards against whole structs of
// undocumented fields in the public model types.
func TestModelStructFieldsDocumented(t *testing.T) {
	fset := token.NewFileSet()
	for _, path := range []string{
		"internal/core/workload.go",
		"internal/machine/processor.go",
	} {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil || len(st.Fields.List) == 0 {
				return true
			}
			documented := 0
			exported := 0
			for _, fl := range st.Fields.List {
				for _, name := range fl.Names {
					if !name.IsExported() {
						continue
					}
					exported++
					if fl.Doc != nil || fl.Comment != nil {
						documented++
					}
				}
			}
			if exported >= 3 && documented == 0 {
				t.Errorf("%s: a struct with %d exported fields documents none of them",
					fset.Position(st.Pos()), exported)
			}
			return true
		})
	}
}

// Every Go or JSON file the prose documents cite in backticks must
// exist: as a path from the repository root, or as a path suffix that
// names exactly one file in the tree. Every cited `cmd/<name>` must be a
// command directory.
func TestDocsCiteExistingFiles(t *testing.T) {
	var files []string
	err := filepath.Walk(".", func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() && strings.HasPrefix(info.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !info.IsDir() && (strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".json")) {
			files = append(files, filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cited := regexp.MustCompile("`([A-Za-z0-9_./-]+\\.(?:go|json))`")
	citedCmd := regexp.MustCompile("`(cmd/[A-Za-z0-9_-]+)/?`")
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cited.FindAllStringSubmatch(string(text), -1) {
			ref := m[1]
			matches := 0
			for _, f := range files {
				if f == ref {
					matches = 1
					break
				}
				if strings.HasSuffix(f, "/"+ref) {
					matches++
				}
			}
			if matches != 1 {
				t.Errorf("%s cites `%s`, which matches %d files", doc, ref, matches)
			}
		}
		for _, m := range citedCmd.FindAllStringSubmatch(string(text), -1) {
			if info, err := os.Stat(m[1]); err != nil || !info.IsDir() {
				t.Errorf("%s cites `%s`, which is not a directory", doc, m[1])
			}
		}
	}
}

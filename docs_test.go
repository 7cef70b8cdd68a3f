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

// testHooks are the exported names under internal/ that only tests call:
// each lets a test observe or force the path it checks. Every entry names
// the test that needs it.
var testHooks = map[string]string{
	"harness.Registry.RunAll":            "TestParallelMatchesSequential compares RunExperiments against this sequential run",
	"machine.InterNodeFabric.Route":      "FuzzHypercubeRoute checks each route against HopCount",
	"machine.InterNodeFabric.FlightTime": "FuzzInterNodeFlight checks flight time against hop count and size",
	"memsim.Cache.Stats":                 "TestCacheColdMissThenHit reads one level's hit and miss counters",
	"memsim.Hierarchy.SetNoFastPath":     "TestChaseLatencySteadyMatchesSlow and the other *MatchesSlow tests force the per-access path",
	"memsim.Hierarchy.Levels":            "TestPhiHierarchyLevels and requireSameCounters read each level's counters",
	"memsim.Hierarchy.MemAccesses":       "requireSameCounters compares memory accesses of the fast and per-access paths",
	"memsim.Hierarchy.LevelName":         "TestHierarchyInclusive names the level that served an access",
	"overflow.Solver.Step":               "TestSolverParallelMatchesSerial compares team steps against this serial step",
	"pcie.Stack.SetDAPLConfig":           "TestSetDAPLConfigAblation and BenchmarkAblationSCIFSwitch disable the SCIF switch",
	"simmpi.World.RankTime":              "TestComputeAdvancesClock reads one rank's final clock",
}

// Every exported func, method and type declared under internal/ must be
// named by non-test code somewhere in the tree (the root module,
// perfbench/, cmd/ and examples/) outside its own declaration. A method's
// receiver does not count as naming its type. String and Error methods
// are exempt (fmt and errors call them), and so are the testHooks, each
// of which must still be declared. The walk matches names only, with no
// type-checking, so a name declared twice counts as used when either is.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct {
		key string // pkg.Name or pkg.Recv.Name
		pos string
	}
	var decls []decl
	named := map[string]int{} // identifier -> uses outside declaring names
	err := filepath.Walk(".", func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			if path != "." && (strings.HasPrefix(info.Name(), ".") || info.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		skip := map[*ast.Ident]bool{} // declarations naming themselves, and receivers
		add := func(key string, id *ast.Ident, node ast.Node) {
			ast.Inspect(node, func(n ast.Node) bool {
				if ref, ok := n.(*ast.Ident); ok && ref.Name == id.Name {
					skip[ref] = true
				}
				return true
			})
			if internal && id.IsExported() {
				decls = append(decls, decl{f.Name.Name + "." + key, fset.Position(id.Pos()).String()})
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name.Name, d.Name, d)
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				switch idx := recv.(type) {
				case *ast.IndexExpr:
					recv = idx.X
				case *ast.IndexListExpr:
					recv = idx.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					skip[id] = true
					if d.Name.Name != "String" && d.Name.Name != "Error" {
						add(id.Name+"."+d.Name.Name, d.Name, d)
					}
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						add(ts.Name.Name, ts.Name, ts)
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !skip[id] {
				named[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		if _, hook := testHooks[d.key]; named[name] == 0 && !hook {
			unused = append(unused, d.key+" ("+d.pos+")")
		}
	}
	for key := range testHooks {
		if !declared[key] {
			t.Errorf("testHooks lists %s, which is not declared under internal/", key)
		}
	}
	if len(unused) > 0 {
		t.Errorf("%d exported items are named only by tests (delete them, or list a hook in testHooks):\n  %s",
			len(unused), strings.Join(unused, "\n  "))
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

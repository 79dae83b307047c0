package raven

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEngineDoesNotLinkScriptFrontEnd: the Python-script analyzer
// (internal/pyanal) is a front end for examples and tools, not part of
// the engine, so nothing package raven imports, directly or
// transitively, may import it. The walk reads the non-test files of
// every module package it reaches, build tags ignored, so it can only
// over-count imports.
func TestEngineDoesNotLinkScriptFrontEnd(t *testing.T) {
	const banned = "raven/internal/pyanal"
	via := map[string]string{"raven": ""} // package -> an importer of it
	queue := []string{"raven"}
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		dir := filepath.FromSlash("." + strings.TrimPrefix(pkg, "raven"))
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, name), nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				if _, seen := via[path]; seen || !strings.HasPrefix(path, "raven/") {
					continue
				}
				via[path] = pkg
				queue = append(queue, path)
			}
		}
	}
	if _, ok := via[banned]; ok {
		chain := banned
		for p := via[banned]; p != ""; p = via[p] {
			chain = p + " -> " + chain
		}
		t.Fatalf("package raven links %s: %s", banned, chain)
	}
	if _, ok := via["raven/internal/sched"]; !ok {
		t.Fatal("the walk never reached internal/sched; it is not following imports")
	}
}

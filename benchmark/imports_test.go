package main

import (
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// Internal packages any file may import: they generate inputs.
var inputPackages = map[string]bool{
	"raven/internal/data":  true,
	"raven/internal/train": true,
	"raven/internal/ml":    true,
}

// Internal packages layers.go alone may import: the public entry points
// of the layers the traced pass walks and probes. tensor is there
// because ort.Session.Run takes its feeds as tensors. Nothing under
// internal/exec, internal/server, internal/pgwire or internal/cluster:
// the benchmark's contract with the serving code is the CLI flags and
// the wire formats.
var layerPackages = map[string]bool{
	"raven/internal/sql":      true,
	"raven/internal/plan":     true,
	"raven/internal/ir":       true,
	"raven/internal/xopt":     true,
	"raven/internal/relopt":   true,
	"raven/internal/codegen":  true,
	"raven/internal/ort":      true,
	"raven/internal/tensor":   true,
	"raven/internal/wal":      true,
	"raven/internal/segment":  true,
	"raven/internal/sched":    true,
	"raven/internal/rescache": true,
}

func TestImportAllowlist(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), e.Name(), nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			switch {
			case path == "raven" || inputPackages[path]:
			case layerPackages[path]:
				if e.Name() != "layers.go" {
					t.Errorf("%s imports %s: calls into that layer belong in layers.go", e.Name(), path)
				}
			case strings.HasPrefix(path, "raven/"):
				t.Errorf("%s imports %s, which is outside the benchmark's allowlist", e.Name(), path)
			case strings.Contains(strings.SplitN(path, "/", 2)[0], "."):
				t.Errorf("%s imports %s: only the standard library and module raven are allowed", e.Name(), path)
			}
		}
	}
}

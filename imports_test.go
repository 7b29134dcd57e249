package dagcover

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// engineImports are the mapping engines behind Map. Outside their own
// packages, only this facade may import them: tools, examples and
// experiments map through Map, so there is one caller surface.
var engineImports = map[string]bool{
	"dagcover/internal/core":    true,
	"dagcover/internal/treemap": true,
	"dagcover/internal/cutmap":  true,
	"dagcover/internal/flowmap": true,
	"dagcover/internal/seqmap":  true,
}

// engineImportAllowed lists the non-test files outside the facade that
// may still import an engine, with the reason.
var engineImportAllowed = map[string]string{
	"internal/experiments/decomp.go": "study A4 maps chain-decomposed subject graphs with chain-compiled patterns, which the facade does not compile",
}

// TestEngineImportBoundary fails when a non-test file outside the root
// package and the engines themselves imports an engine package, and
// when an allow-list entry no longer needs its exception.
func TestEngineImportBoundary(t *testing.T) {
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if dir == "." || engineImports["dagcover/"+dir] {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			pkg, err := strconv.Unquote(imp.Path.Value)
			if err != nil || !engineImports[pkg] {
				continue
			}
			if _, ok := engineImportAllowed[filepath.ToSlash(path)]; ok {
				used[filepath.ToSlash(path)] = true
				continue
			}
			t.Errorf("%s imports %s: map through dagcover.Map instead", path, pkg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for path, reason := range engineImportAllowed {
		if !used[path] {
			t.Errorf("allow-list entry %s (%s) imports no engine; remove it", path, reason)
		}
	}
}

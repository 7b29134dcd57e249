package genlib_test

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"dagcover"
	"dagcover/internal/genlib"
	"dagcover/internal/libgen"
)

// FuzzGenlib checks the genlib boundary: any text Parse accepts, Write
// renders as text that parses back to an equal library (Write is the
// supergate artifact format and the upload echo), and CompileLibrary
// on any parsed library returns a library or an error, never a panic.
// The committed corpus (testdata/fuzz/FuzzGenlib) holds lib2, 44-1,
// 44-3, the sample library of the unit tests and a library of 11- and
// 16-input gates; regenerate it with
//
//	go test ./internal/genlib -run TestGenlibFuzzCorpus -write-corpus
func FuzzGenlib(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > 8<<10 {
			return
		}
		lib, err := genlib.ParseString("fuzz", text)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := genlib.Write(&buf, lib); err != nil {
			t.Fatal(err)
		}
		back, err := genlib.Parse("fuzz", &buf)
		if err != nil {
			t.Fatalf("written library does not parse: %v\n%s", err, buf.String())
		}
		if diff := libraryDiff(lib, back); diff != "" {
			t.Fatalf("round trip changed the library: %s\n%s", diff, buf.String())
		}
		_, _ = dagcover.CompileLibrary(lib)
	})
}

// libraryDiff describes the first difference between two libraries,
// or returns "" when they are equal: same gates in the same order with
// the same names, areas, outputs, functions (as printed) and pins.
// Floats compare by bits, so a NaN survives the trip only as itself.
func libraryDiff(a, b *genlib.Library) string {
	if len(a.Gates) != len(b.Gates) {
		return fmt.Sprintf("%d gates became %d", len(a.Gates), len(b.Gates))
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i, g := range a.Gates {
		h := b.Gates[i]
		switch {
		case g.Name != h.Name || g.Output != h.Output || !same(g.Area, h.Area):
			return fmt.Sprintf("gate %d: %q %s=%v area %v became %q %s=%v area %v",
				i, g.Name, g.Output, g.Expr, g.Area, h.Name, h.Output, h.Expr, h.Area)
		case g.Expr.String() != h.Expr.String():
			return fmt.Sprintf("gate %q: function %v became %v", g.Name, g.Expr, h.Expr)
		case len(g.Pins) != len(h.Pins):
			return fmt.Sprintf("gate %q: %d pins became %d", g.Name, len(g.Pins), len(h.Pins))
		}
		for j, p := range g.Pins {
			q := h.Pins[j]
			if p.Name != q.Name || p.Phase != q.Phase || !same(p.InputLoad, q.InputLoad) ||
				!same(p.MaxLoad, q.MaxLoad) || !same(p.RiseBlock, q.RiseBlock) ||
				!same(p.RiseFanout, q.RiseFanout) || !same(p.FallBlock, q.FallBlock) ||
				!same(p.FallFanout, q.FallFanout) {
				return fmt.Sprintf("gate %q pin %d: %+v became %+v", g.Name, j, p, q)
			}
		}
	}
	return ""
}

var writeCorpus = flag.Bool("write-corpus", false, "rewrite the FuzzGenlib seed corpus")

// genlibSeeds returns the FuzzGenlib seeds by file name.
func genlibSeeds(t *testing.T) map[string]string {
	seeds := map[string]string{"sample": genlib.SampleLib}
	wide := genlib.NewLibrary("wide")
	for _, n := range []int{11, 16} {
		if err := wide.Add(genlib.WideGate(t, n)); err != nil {
			t.Fatal(err)
		}
	}
	for name, lib := range map[string]*genlib.Library{
		"lib2": libgen.Lib2(), "44-1": libgen.Lib441(), "44-3": libgen.Lib443(), "wide": wide,
	} {
		var buf bytes.Buffer
		if err := genlib.Write(&buf, lib); err != nil {
			t.Fatal(err)
		}
		seeds[name] = buf.String()
	}
	return seeds
}

// TestGenlibFuzzCorpus keeps the committed FuzzGenlib corpus in step
// with its sources: every seed file must hold exactly what
// genlibSeeds renders today.
func TestGenlibFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzGenlib")
	for name, text := range genlibSeeds(t) {
		file := []byte(fmt.Sprintf("go test fuzz v1\nstring(%q)\n", text))
		path := filepath.Join(dir, name)
		if *writeCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, file, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (rerun with -write-corpus)", err)
		}
		if !bytes.Equal(got, file) {
			t.Errorf("%s is stale (rerun with -write-corpus)", path)
		}
	}
}

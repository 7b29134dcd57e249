package subject

import (
	"testing"

	"dagcover/internal/libgen"
	"dagcover/internal/logic"
)

func TestCompilePatternNand2(t *testing.T) {
	lib := libgen.Lib441()
	p, err := CompilePattern(lib.Gate("nand2"), CompileOptions{Share: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.Graph.KindOf(p.Root) != Nand2 {
		t.Errorf("nand2 pattern root = %v", p.Graph.KindOf(p.Root))
	}
	if p.Size != 3 { // 2 leaves + 1 nand
		t.Errorf("nand2 pattern size = %d, want 3", p.Size)
	}
	if len(p.PinLeaf) != 2 {
		t.Errorf("leaf pins = %d", len(p.PinLeaf))
	}
	for pin, leaf := range p.PinLeaf {
		if p.Graph.KindOf(leaf) != PI {
			t.Errorf("leaf %v is not a PI", leaf)
		}
		if p.Gate.Pins[pin].Name != p.Graph.NameOf(leaf) {
			t.Errorf("pin %d (%q) mapped to leaf %q", pin, p.Gate.Pins[pin].Name, p.Graph.NameOf(leaf))
		}
		if got := p.LeafPin(leaf); got != pin {
			t.Errorf("LeafPin(%v) = %d, want %d", leaf, got, pin)
		}
	}
	if got := p.LeafPin(p.Root); got != -1 {
		t.Errorf("LeafPin(root) = %d, want -1", got)
	}
}

func TestCompilePatternFunctions(t *testing.T) {
	// Every compiled pattern must compute the gate function.
	lib2 := libgen.Lib2()
	pats, skipped, err := CompileLibrary(lib2, CompileOptions{Share: true})
	if err != nil {
		t.Fatal(err)
	}
	// lib2 contains one buffer which cannot form a pattern.
	if len(skipped) != 1 || skipped[0] != "buf" {
		t.Errorf("skipped = %v, want [buf]", skipped)
	}
	if len(pats) != len(lib2.Gates)-1 {
		t.Errorf("patterns = %d, want %d", len(pats), len(lib2.Gates)-1)
	}
	for _, p := range pats {
		e, err := Expr(p.Graph, p.Root, nil)
		if err != nil {
			t.Fatal(err)
		}
		eq, err := logic.Equivalent(e, p.Gate.Expr)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Errorf("pattern %q computes %v, want %v", p.Gate.Name, e, p.Gate.Expr)
		}
		if p.Depth <= 0 {
			t.Errorf("pattern %q depth = %d", p.Gate.Name, p.Depth)
		}
	}
}

func TestCompileLibrary443(t *testing.T) {
	lib := libgen.Lib443()
	pats, _, err := CompileLibrary(lib, CompileOptions{Share: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(pats) == 0 {
		t.Fatal("no patterns")
	}
	// The 16-input AOI must decompose within depth ~6.
	for _, p := range pats {
		if p.Gate.Name == "aoi4444" {
			if p.Depth > 7 {
				t.Errorf("aoi4444 depth = %d, too deep for a balanced decomposition", p.Depth)
			}
			if len(p.PinLeaf) != 16 {
				t.Errorf("aoi4444 leaves = %d", len(p.PinLeaf))
			}
		}
	}
}

func TestCompileConstantGateFails(t *testing.T) {
	lib := libgen.Lib2()
	buf := lib.Gate("buf")
	if _, err := CompilePattern(buf, CompileOptions{}); err == nil {
		t.Error("buffer pattern compiled")
	}
}

func TestSharedVsTreePatternSize(t *testing.T) {
	// With SOP-form XOR both compilation modes produce the same
	// 7-node leaf-DAG pattern; both must compute XOR.
	lib := libgen.Lib2()
	xor := lib.Gate("xor2")
	shared, err := CompilePattern(xor, CompileOptions{Share: true})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := CompilePattern(xor, CompileOptions{Share: false})
	if err != nil {
		t.Fatal(err)
	}
	if shared.Size != 7 || tree.Size != 7 {
		t.Errorf("XOR pattern sizes = %d (shared), %d (tree); want 7", shared.Size, tree.Size)
	}
	for _, p := range []*Pattern{shared, tree} {
		e, err := Expr(p.Graph, p.Root, nil)
		if err != nil {
			t.Fatal(err)
		}
		eq, err := logic.Equivalent(e, logic.MustParse("a^b"))
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Errorf("XOR pattern computes %v", e)
		}
	}
}

package dagcover

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"dagcover/internal/bench"
	"dagcover/internal/logic"
	"dagcover/internal/match"
	"dagcover/internal/subject"
	"dagcover/internal/treemap"
)

var allModes = []Mode{ModeDAG, ModeChoices, ModeTree, ModeTreeArea, ModeLUT, ModeLUTArea}

// modeOptions returns valid options for mode: a library for the gate
// modes, a LUT size for the LUT modes.
func modeOptions(mode Mode, cl *CompiledLibrary) MapOptions {
	if mode.lut() {
		return MapOptions{Mode: mode, K: 4}
	}
	return MapOptions{Mode: mode, Library: cl}
}

// TestMapModes runs every mode on every input kind it accepts and
// checks the contract Map gives all of them: a cancelled context
// surfaces as context.Canceled, a trace records spans, and the shared
// result fields describe the subject graph that was mapped.
func TestMapModes(t *testing.T) {
	nw := bench.RippleAdder(8)
	g, err := BuildSubject(nw)
	if err != nil {
		t.Fatal(err)
	}
	choiceGraph, _, err := subject.FromNetworkWithChoices(nw)
	if err != nil {
		t.Fatal(err)
	}
	cl := compile(t, Lib2())
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	inputs := []struct {
		name string
		in   Input
	}{
		{"network", Input{Network: nw}},
		{"subject", Input{Subject: g}},
	}
	for _, mode := range allModes {
		for _, input := range inputs {
			if mode == ModeChoices && input.in.Network == nil {
				continue // an invalid combination, checked below
			}
			t.Run(mode.String()+"/"+input.name, func(t *testing.T) {
				opt := modeOptions(mode, cl)
				if _, err := Map(cancelled, input.in, opt); !errors.Is(err, context.Canceled) {
					t.Errorf("cancelled context: err = %v, want context.Canceled", err)
				}
				opt.Trace = NewTrace()
				res, err := Map(context.Background(), input.in, opt)
				if err != nil {
					t.Fatal(err)
				}
				spans := 0
				for _, e := range opt.Trace.Events() {
					if e.Phase == 'X' {
						spans++
					}
				}
				if spans == 0 {
					t.Error("trace recorded no spans")
				}
				want := g
				if mode == ModeChoices {
					want = choiceGraph
				}
				if res.SubjectSHA != want.Digest() || res.SubjectNodes != want.NumNodes() {
					t.Errorf("subject fields %q/%d, want %q/%d",
						res.SubjectSHA, res.SubjectNodes, want.Digest(), want.NumNodes())
				}
				if mode.lut() {
					err = VerifyNetworks(nw, res.Network)
				} else {
					err = Verify(nw, res.Netlist)
				}
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestPortNamingEveryMode holds every emitting mode to one set of
// naming rules: a port on a primary input sits on the input's net, the
// first port on a node names that node's net or LUT, and a second port
// there shares it. Port names shaped like the generated names ("w<k>"
// nets, "U<k>" cells, "lut<k>" LUTs) must not be taken by a generated
// one: w0 sits on input a, and lut0 is t's second port.
func TestPortNamingEveryMode(t *testing.T) {
	nw, err := ParseBLIF(strings.NewReader(`.model ports
.inputs a b c d e f
.outputs w0 t lut0 U0
.names a w0
1 1
.names a b c d e f t
111111 1
.names t lut0
1 1
.names a b c d e f U0
1----- 1
-1---- 1
--1--- 1
---1-- 1
----11 1
.end
`))
	if err != nil {
		t.Fatal(err)
	}
	want := "[w0<-a t<-t lut0<-t U0<-U0]" // port<-net, in order
	cl := compile(t, Lib2())
	for _, mode := range allModes {
		res, err := Map(context.Background(), Input{Network: nw}, modeOptions(mode, cl))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		var got []string
		var blif bytes.Buffer
		if res.Netlist != nil {
			err = Verify(nw, res.Netlist)
			for _, p := range res.Netlist.Outputs {
				got = append(got, p.Name+"<-"+p.Net)
			}
			if werr := res.Netlist.WriteBLIF(&blif); werr != nil {
				t.Fatal(werr)
			}
		} else {
			err = VerifyNetworks(nw, res.Network)
			// A port's net is its LUT, or the input or LUT an
			// identity node copies.
			for _, o := range res.Network.Outputs() {
				net := o.Name
				if len(o.Fanins) == 1 && o.Func.Op == logic.OpVar {
					net = o.Fanins[0].Name
				}
				got = append(got, o.Name+"<-"+net)
			}
			if werr := WriteBLIF(&blif, res.Network); werr != nil {
				t.Fatal(werr)
			}
		}
		if err != nil {
			t.Errorf("%v: %v", mode, err)
		}
		if fmt.Sprint(got) != want {
			t.Errorf("%v: ports %v, want %v", mode, got, want)
		}
		if !strings.Contains(blif.String(), "\n.outputs w0 t lut0 U0\n") {
			t.Errorf("%v: .outputs line missing from\n%s", mode, blif.String())
		}
	}
}

// TestTreePatternsCompiledOnFirstTreeMap: dag mode never builds the
// unshared tree patterns; concurrent first tree-mode runs build them
// once and map byte-identically to a matcher compiled up front.
func TestTreePatternsCompiledOnFirstTreeMap(t *testing.T) {
	nw := bench.RippleAdder(8)
	g, err := BuildSubject(nw)
	if err != nil {
		t.Fatal(err)
	}
	cl := compile(t, Lib443())
	mapNet(t, nw, MapOptions{Library: cl})
	if cl.tree != nil {
		t.Fatal("a dag-mode run compiled the tree patterns")
	}
	trees, _, err := subject.CompileLibrary(Lib443(), subject.CompileOptions{Share: false})
	if err != nil {
		t.Fatal(err)
	}
	eager, err := treemap.Map(g, match.NewMatcher(trees), treemap.Options{Objective: treemap.MinDelay, Delay: IntrinsicDelay})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := eager.Netlist.WriteBLIF(&want); err != nil {
		t.Fatal(err)
	}
	got := make([]bytes.Buffer, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(b *bytes.Buffer) {
			defer wg.Done()
			res, err := Map(context.Background(), Input{Network: nw}, MapOptions{Mode: ModeTree, Library: cl})
			if err != nil {
				t.Error(err)
				return
			}
			if err := res.Netlist.WriteBLIF(b); err != nil {
				t.Error(err)
			}
		}(&got[i])
	}
	wg.Wait()
	for i := range got {
		if !bytes.Equal(got[i].Bytes(), want.Bytes()) {
			t.Errorf("run %d: lazily compiled tree patterns map differently from eager ones", i)
		}
	}
}

// TestMapRejectsInvalidCombinations covers the option/input pairs Map
// refuses rather than guessing at.
func TestMapRejectsInvalidCombinations(t *testing.T) {
	nw := bench.RippleAdder(4)
	g, err := BuildSubject(nw)
	if err != nil {
		t.Fatal(err)
	}
	cl := compile(t, Lib2())
	for _, c := range []struct {
		name string
		in   Input
		opt  MapOptions
	}{
		{"lut with library", Input{Network: nw}, MapOptions{Mode: ModeLUT, K: 4, Library: cl}},
		{"lut-area with library", Input{Network: nw}, MapOptions{Mode: ModeLUTArea, K: 4, Library: cl}},
		{"dag without library", Input{Network: nw}, MapOptions{}},
		{"tree without library", Input{Subject: g}, MapOptions{Mode: ModeTree}},
		{"choices on a subject graph", Input{Subject: g}, MapOptions{Mode: ModeChoices, Library: cl}},
		{"no input", Input{}, MapOptions{Library: cl}},
		{"both inputs", Input{Network: nw, Subject: g}, MapOptions{Library: cl}},
		{"unknown mode", Input{Network: nw}, MapOptions{Mode: ModeLUTArea + 1, Library: cl}},
	} {
		if _, err := Map(context.Background(), c.in, c.opt); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestParseOptionNames round-trips every mode, delay model and match
// class name and rejects unknown ones.
func TestParseOptionNames(t *testing.T) {
	for _, mode := range allModes {
		if got, err := ParseMode(mode.String()); err != nil || got != mode {
			t.Errorf("ParseMode(%q) = %v, %v", mode, got, err)
		}
	}
	if got, err := ParseMode(""); err != nil || got != ModeDAG {
		t.Errorf(`ParseMode("") = %v, %v; want dag`, got, err)
	}
	for name, want := range map[string]DelayModel{"": IntrinsicDelay, "intrinsic": IntrinsicDelay, "unit": UnitDelay} {
		if got, err := ParseDelayModel(name); err != nil || got != want {
			t.Errorf("ParseDelayModel(%q) = %v, %v", name, got, err)
		}
	}
	for name, want := range map[string]MatchClass{"": MatchStandard, "standard": MatchStandard, "extended": MatchExtended} {
		if got, err := ParseMatchClass(name); err != nil || got != want {
			t.Errorf("ParseMatchClass(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseMode("seq"); err == nil || err.Error() != `unknown mode "seq"` {
		t.Errorf("ParseMode(seq) error = %v", err)
	}
	if _, err := ParseDelayModel("load"); err == nil || err.Error() != `unknown delay model "load"` {
		t.Errorf("ParseDelayModel(load) error = %v", err)
	}
	if _, err := ParseMatchClass("exact"); err == nil || err.Error() != `unknown match class "exact"` {
		t.Errorf("ParseMatchClass(exact) error = %v", err)
	}
}

// Area recovery over a choice-encoded graph must keep the optimal
// delay. On C432 a node's class label came from another member that
// its own matches cannot reach in time, so recovery has to choose among
// the whole class's matches, as labeling did.
func TestChoicesAreaRecoveryC432(t *testing.T) {
	nw := bench.C432()
	for _, lib := range []*Library{Lib2(), Lib441(), Lib443()} {
		cl := compile(t, lib)
		for _, dm := range []DelayModel{IntrinsicDelay, UnitDelay} {
			opt := MapOptions{Mode: ModeChoices, Library: cl, Delay: dm}
			plain := mapNet(t, nw, opt)
			opt.AreaRecovery = true
			rec, err := Map(context.Background(), Input{Network: nw}, opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", lib.Name, dm.Name(), err)
			}
			// Equal up to float rounding: a recovered path may sum the
			// same pin delays in another order.
			if math.Abs(rec.Delay-plain.Delay) > 1e-9 {
				t.Errorf("%s/%s: recovery delay %v, want the recovery-off %v", lib.Name, dm.Name(), rec.Delay, plain.Delay)
			}
			if err := Verify(nw, rec.Netlist); err != nil {
				t.Fatalf("%s/%s: %v", lib.Name, dm.Name(), err)
			}
		}
	}
}

package mapping

import (
	"bytes"
	"testing"

	"dagcover/internal/genlib"
	"dagcover/internal/libgen"
)

// TestWriteBLIFEdgeCases pins WriteBLIF's bytes on the shapes the
// golden netlist hashes do not reach: no inputs (the ".inputs " line
// keeps its trailing space), no outputs, a port aliased to another
// port's net, ports sitting directly on primary inputs, and gates of
// one to six pins.
func TestWriteBLIFEdgeCases(t *testing.T) {
	lib := libgen.Lib2()
	consts, err := genlib.ParseString("consts", "GATE zero 0.0 O=CONST0;\nGATE one 0.0 O=CONST1;\n")
	if err != nil {
		t.Fatal(err)
	}
	gate := func(l *genlib.Library, name string) *genlib.Gate {
		g := l.Gate(name)
		if g == nil {
			t.Fatalf("no gate %q", name)
		}
		return g
	}
	for _, tc := range []struct {
		name string
		nl   *Netlist
		want string
	}{
		{
			name: "no inputs",
			nl: &Netlist{
				Name:    "k",
				Outputs: []OutputPort{{Name: "z", Net: "z"}, {Name: "o", Net: "w0"}},
				Cells: []*Cell{
					{Name: "U0", Gate: gate(consts, "zero"), Output: "z"},
					{Name: "U1", Gate: gate(consts, "one"), Output: "w0"},
				},
			},
			want: ".model k\n.inputs \n.outputs z o\n" +
				".gate zero O=z\n.gate one O=w0\n" +
				".names w0 o\n1 1\n.end\n",
		},
		{
			name: "no outputs",
			nl: &Netlist{
				Name:   "sink",
				Inputs: []string{"a", "b"},
				Cells:  []*Cell{{Name: "U0", Gate: gate(lib, "nand2"), Inputs: []string{"a", "b"}, Output: "w0"}},
			},
			want: ".model sink\n.inputs a b\n.outputs \n.gate nand2 a=a b=b O=w0\n.end\n",
		},
		{
			name: "aliased port",
			nl: &Netlist{
				Name:    "alias",
				Inputs:  []string{"a"},
				Outputs: []OutputPort{{Name: "o1", Net: "o1"}, {Name: "o2", Net: "o1"}},
				Cells:   []*Cell{{Name: "U0", Gate: gate(lib, "inv"), Inputs: []string{"a"}, Output: "o1"}},
			},
			want: ".model alias\n.inputs a\n.outputs o1 o2\n.gate inv a=a O=o1\n.names o1 o2\n1 1\n.end\n",
		},
		{
			name: "ports on inputs",
			nl: &Netlist{
				Name:    "wire",
				Inputs:  []string{"a", "b"},
				Outputs: []OutputPort{{Name: "a", Net: "a"}, {Name: "y", Net: "b"}},
			},
			want: ".model wire\n.inputs a b\n.outputs a y\n.names b y\n1 1\n.end\n",
		},
		{
			name: "multi-pin gates",
			nl: &Netlist{
				Name:    "wide",
				Inputs:  []string{"p", "q", "r", "s", "t", "u"},
				Outputs: []OutputPort{{Name: "f", Net: "f"}},
				Cells: []*Cell{
					{Name: "U0", Gate: gate(lib, "aoi222"), Inputs: []string{"p", "q", "r", "s", "t", "u"}, Output: "w0"},
					{Name: "U1", Gate: gate(lib, "mux21"), Inputs: []string{"w0", "p", "s"}, Output: "w1"},
					{Name: "U2", Gate: gate(lib, "aoi22"), Inputs: []string{"w1", "w1", "q", "w0"}, Output: "f"},
				},
			},
			want: ".model wide\n.inputs p q r s t u\n.outputs f\n" +
				".gate aoi222 a=p b=q c=r d=s e=t f=u O=w0\n" +
				".gate mux21 a=w0 b=p s=s O=w1\n" +
				".gate aoi22 a=w1 b=w1 c=q d=w0 O=f\n.end\n",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.nl.WriteBLIF(&buf); err != nil {
				t.Fatal(err)
			}
			if got := buf.String(); got != tc.want {
				t.Errorf("got:\n%q\nwant:\n%q", got, tc.want)
			}
			if size := tc.nl.blifSize(); size != buf.Len() {
				t.Errorf("blifSize %d, output %d bytes", size, buf.Len())
			}
		})
	}
}

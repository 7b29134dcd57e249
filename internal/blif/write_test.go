package blif_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"testing"

	"dagcover/internal/bench"
	"dagcover/internal/blif"
	"dagcover/internal/logic"
	"dagcover/internal/network"
	"dagcover/internal/verify"
)

// suiteRender is blif.Write's rendering of one suite circuit.
type suiteRender struct {
	name string
	nw   *network.Network
	text []byte
	err  error
}

var (
	suiteOnce    sync.Once
	suiteRenders []suiteRender
)

// renderSuite renders every suite circuit once per test binary: the
// circuits whose wide XORs must be split take seconds to render.
func renderSuite() []suiteRender {
	suiteOnce.Do(func() {
		for _, c := range bench.FullSuite() {
			var buf bytes.Buffer
			err := blif.Write(&buf, c.Network)
			suiteRenders = append(suiteRenders, suiteRender{c.Name, c.Network, buf.Bytes(), err})
		}
	})
	return suiteRenders
}

// TestWriteSuiteRoundTrip renders all ten suite circuits, including
// C499, C1355 and C1908 whose wide XORs no single cover can hold, and
// reads each back: the parsed network must be equivalent to the
// original.
func TestWriteSuiteRoundTrip(t *testing.T) {
	for _, r := range renderSuite() {
		if r.err != nil {
			t.Fatalf("%s: render: %v", r.name, r.err)
		}
		again, err := blif.ParseString(string(r.text))
		if err != nil {
			t.Fatalf("%s: parse: %v", r.name, err)
		}
		if err := verify.Networks(r.nw, again, verify.Options{}); err != nil {
			t.Errorf("%s: round trip: %v", r.name, err)
		}
	}
}

// TestWriteSuiteBytesPinned pins the rendering of the circuits whose
// every function fits one cover: splitting wide functions must leave
// them byte-identical (these are genbench's outputs).
func TestWriteSuiteBytesPinned(t *testing.T) {
	want := map[string]string{
		"C432":  "326573015ec27f3993d085ce11f5ffd3816ce38ecc0a4d5e690925e6ca40ec83",
		"C880":  "7bc9a76c396354fcd0f86a814d81e28b771802bca8d62756b343223b04718784",
		"C2670": "c086f58d5912edfb2edf6a7cb8868ab6064bbde5aa2e1190177a6280e5020370",
		"C3540": "4e5546e3f44717b8c467775435ac732371253506e2eba059c9a3572e5c2700c0",
		"C5315": "3c64966e06bef60d4841aeb8e688beb6b75c134d1f6a2c5b05394b79c7f52082",
		"C6288": "57956e468b82f8d6d62e1a78be86d5ab6aead577328260d248112338c40f24e9",
		"C7552": "99ca28be78da210464c1fb9f29f3aa40b45b29fe2396ce570665af2d83211191",
	}
	for _, r := range renderSuite() {
		sha, pinned := want[r.name]
		if !pinned {
			continue
		}
		sum := sha256.Sum256(r.text)
		if got := hex.EncodeToString(sum[:]); got != sha {
			t.Errorf("%s: rendering sha256 %s, want %s", r.name, got, sha)
		}
	}
}

// TestWriteSplitsWideFunction renders a 16-input XOR, too wide for a
// cover of either phase, next to a node already named like the first
// intermediate: the split must pick fresh names, write them before
// their reader, and keep the function.
func TestWriteSplitsWideFunction(t *testing.T) {
	nw := network.New("wide")
	var vars []string
	var kids []*logic.Expr
	for i := 0; i < 16; i++ {
		v := fmt.Sprintf("x%d", i)
		if _, err := nw.AddInput(v); err != nil {
			t.Fatal(err)
		}
		vars = append(vars, v)
		kids = append(kids, logic.Variable(v))
	}
	if _, err := nw.AddNode("f$1", vars[:1], logic.Not(kids[0])); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.AddNode("f", vars, logic.Not(logic.Xor(kids...))); err != nil {
		t.Fatal(err)
	}
	for _, o := range []string{"f", "f$1"} {
		if err := nw.MarkOutput(o); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := blif.Write(&buf, nw); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	var decls []string
	for _, ln := range strings.Split(text, "\n") {
		if strings.HasPrefix(ln, ".names") {
			decls = append(decls, ln)
		}
	}
	want := []string{
		".names x0 f$1",
		".names x0 x1 x2 x3 x4 x5 x6 x7 f$2",
		".names x8 x9 x10 x11 x12 x13 x14 x15 f$3",
		".names f$2 f$3 f",
	}
	if strings.Join(decls, "\n") != strings.Join(want, "\n") {
		t.Fatalf("declarations\n%s\nwant\n%s", strings.Join(decls, "\n"), strings.Join(want, "\n"))
	}
	again, err := blif.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Networks(nw, again, verify.Options{}); err != nil {
		t.Fatal(err)
	}
	// Intermediates precede their reader, so the streaming reader
	// takes the file without falling back.
	if _, err := (&blif.Reader{}).StreamSubject(strings.NewReader(text)); err != nil {
		t.Fatalf("stream: %v", err)
	}
}

package match

import (
	"fmt"
	"strings"
	"testing"

	"dagcover/internal/bench"
	"dagcover/internal/libgen"
	"dagcover/internal/subject"
)

// snapshotMatches renders every match at every node of g in
// enumeration order, so two match streams can be compared byte for
// byte.
func snapshotMatches(m *Matcher, g *subject.Graph, class Class) string {
	var sb strings.Builder
	for i := 0; i < g.NumNodes(); i++ {
		n := subject.Node(i)
		for _, mt := range m.AllMatches(g, n, class) {
			fmt.Fprintf(&sb, "%d %s", n, mt.Pattern.Gate.Name)
			for _, l := range mt.Leaves {
				fmt.Fprintf(&sb, " L%d", l)
			}
			for _, c := range mt.Covered {
				fmt.Fprintf(&sb, " C%d", c)
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// TestResetMatchesFresh checks that a matcher that has already
// enumerated (on a different, larger graph, so all scratch tables have
// grown and the epoch has advanced) behaves byte-identically to a
// fresh clone after Reset: same match stream, same PatternsTried.
func TestResetMatchesFresh(t *testing.T) {
	pats := compile(t, libgen.Lib2(), true)

	g1, err := subject.FromNetwork(bench.Comparator(6))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := subject.FromNetwork(bench.ALU(4))
	if err != nil {
		t.Fatal(err)
	}

	for _, class := range []Class{Exact, Standard, Extended} {
		t.Run(class.String(), func(t *testing.T) {
			fresh := NewMatcher(pats)
			want := snapshotMatches(fresh, g1, class)
			wantTried := fresh.PatternsTried()

			dirty := NewMatcher(pats)
			snapshotMatches(dirty, g2, class) // grow scratch, advance epoch
			if dirty.PatternsTried() == 0 {
				t.Fatal("warm-up enumerated nothing")
			}
			dirty.Reset()
			if got := dirty.PatternsTried(); got != 0 {
				t.Fatalf("PatternsTried after Reset = %d, want 0", got)
			}
			got := snapshotMatches(dirty, g1, class)
			if got != want {
				t.Fatalf("reset matcher diverges from fresh matcher:\nfresh:\n%s\nreset:\n%s", want, got)
			}
			if gotTried := dirty.PatternsTried(); gotTried != wantTried {
				t.Fatalf("PatternsTried after reset run = %d, want %d", gotTried, wantTried)
			}
		})
	}
}

// TestResetClearsChoices documents that Reset drops choice classes: a
// pooled matcher must be re-armed per request.
func TestResetClearsChoices(t *testing.T) {
	m := NewMatcher(compile(t, libgen.Lib2(), true))
	m.SetChoices(&subject.Choices{})
	m.Reset()
	if m.choices != nil {
		t.Fatal("Reset did not clear choices")
	}
}

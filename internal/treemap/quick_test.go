package treemap

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dagcover/internal/libgen"
	"dagcover/internal/match"
	"dagcover/internal/subject"
	"dagcover/internal/verify"
)

// Property (testing/quick): tree covering produces a valid,
// functionally correct netlist whose delay the min-area mode never
// beats, and min-area never uses more area than min-delay.
func TestQuickTreeMappingInvariants(t *testing.T) {
	m := lib2TreeMatcher(t)
	prop := func(seed int64) bool { return treeInvariantsHold(t, m, seed) }
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestTreeMinAreaOutputPort pins a seed on which min-area tree covering
// once spent more area (9280) than min-delay (8816): an exact match
// covered a node whose only other use was an output port, so the DP
// priced that cone once, inside its consumer, while emission built it
// a second time for the port.
func TestTreeMinAreaOutputPort(t *testing.T) {
	if !treeInvariantsHold(t, lib2TreeMatcher(t), 2355955403085946385) {
		t.Fatal("tree mapping invariants violated")
	}
}

// lib2TreeMatcher compiles lib2's tree patterns into a matcher.
func lib2TreeMatcher(t *testing.T) *match.Matcher {
	t.Helper()
	pats, _, err := subject.CompileLibrary(libgen.Lib2(), subject.CompileOptions{Share: false})
	if err != nil {
		t.Fatal(err)
	}
	return match.NewMatcher(pats)
}

// treeInvariantsHold maps a random network drawn from seed for minimum
// delay and minimum area and checks both netlists: valid, equivalent,
// min-area never beats the optimal delay, and never uses more area
// than min-delay.
func treeInvariantsHold(t *testing.T, m *match.Matcher, seed int64) bool {
	rng := rand.New(rand.NewSource(seed))
	nw := randomNetwork(t, rng, 4+rng.Intn(3), 12+rng.Intn(20))
	g, err := subject.FromNetwork(nw)
	if err != nil {
		return false
	}
	minDelay, err := Map(g, m, Options{Objective: MinDelay})
	if err != nil {
		t.Logf("seed %d: %v", seed, err)
		return false
	}
	minArea, err := Map(g, m, Options{Objective: MinArea})
	if err != nil {
		t.Logf("seed %d: %v", seed, err)
		return false
	}
	if minArea.Netlist.Area() > minDelay.Netlist.Area()+1e-9 {
		t.Logf("seed %d: min-area area %v > min-delay area %v",
			seed, minArea.Netlist.Area(), minDelay.Netlist.Area())
		return false
	}
	if minArea.Delay+1e-9 < minDelay.Delay {
		t.Logf("seed %d: min-area delay %v beats optimal %v",
			seed, minArea.Delay, minDelay.Delay)
		return false
	}
	for _, res := range []*Result{minDelay, minArea} {
		if err := res.Netlist.Check(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if err := verify.Mapped(nw, res.Netlist, verify.Options{}); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
	}
	return true
}

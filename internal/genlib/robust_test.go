package genlib

import (
	"math/rand"
	"strings"
	"testing"
)

// Random mutations of valid genlib text must never panic the parser;
// accepted parses must produce consistent libraries.
func TestParseMutationRobustness(t *testing.T) {
	rng := rand.New(rand.NewSource(317))
	for trial := 0; trial < 1500; trial++ {
		bs := []byte(sampleLib)
		for m := 0; m < 1+rng.Intn(4); m++ {
			switch rng.Intn(3) {
			case 0:
				bs[rng.Intn(len(bs))] = byte(rng.Intn(128))
			case 1:
				i := rng.Intn(len(bs))
				j := i + rng.Intn(10)
				if j > len(bs) {
					j = len(bs)
				}
				bs = append(bs[:i], bs[j:]...)
				if len(bs) == 0 {
					bs = []byte("G")
				}
			case 2:
				words := strings.Fields(string(bs))
				if len(words) > 1 {
					k := rng.Intn(len(words))
					words = append(words[:k], words[k+1:]...)
					bs = []byte(strings.Join(words, " "))
				}
			}
		}
		in := string(bs)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("ParseString panicked:\n%s\npanic: %v", in, r)
				}
			}()
			lib, err := ParseString("fuzz", in)
			if err == nil {
				for _, g := range lib.Gates {
					if g.Expr == nil || g.NumInputs() != len(g.Pins) {
						t.Fatalf("accepted library has inconsistent gate %q", g.Name)
					}
					for _, v := range g.Expr.Vars() {
						if pinIndex(g, v) < 0 {
							t.Fatalf("accepted gate %q misses pin %q", g.Name, v)
						}
					}
				}
			}
		}()
	}
}

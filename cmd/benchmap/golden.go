package main

// Golden-netlist verification: map every ISCAS circuit against every
// library at several parallelism levels with the memo both off and
// on, hash each mapped netlist, and compare against the committed
// golden hashes. Any difference exits nonzero — the SoA refactor, the
// memo, and the parallel labeler must all be bit-exact no-ops on the
// output.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"dagcover"
	"dagcover/internal/bench"
)

// goldenParallelisms are the labeler widths the golden gate checks;
// the mapped netlist must not depend on worker count.
var goldenParallelisms = []int{1, 4, 8}

// runGolden verifies the full ISCAS suite against the golden hash
// file. It returns the number of mismatches.
func runGolden(path string) (int, error) {
	doc, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	golden := map[string]map[string]string{}
	if err := json.Unmarshal(doc, &golden); err != nil {
		return 0, fmt.Errorf("parse %s: %w", path, err)
	}
	mismatches := 0
	checked := 0
	for _, lc := range libs() {
		cl, err := dagcover.CompileLibrary(lc.lib)
		if err != nil {
			return 0, fmt.Errorf("compile %s: %w", lc.name, err)
		}
		for _, c := range bench.FullSuite() {
			want := golden[c.Name][lc.name]
			if want == "" {
				return 0, fmt.Errorf("no golden hash for %s x %s in %s", c.Name, lc.name, path)
			}
			for _, p := range goldenParallelisms {
				for _, memo := range []bool{false, true} {
					res, err := dagcover.Map(context.Background(), dagcover.Input{Network: c.Network},
						dagcover.MapOptions{Library: cl, Delay: lc.delay, Parallelism: p, NoMemo: !memo})
					if err != nil {
						return 0, fmt.Errorf("%s x %s (p=%d memo=%v): %w", c.Name, lc.name, p, memo, err)
					}
					var blif bytes.Buffer
					if err := res.Netlist.WriteBLIF(&blif); err != nil {
						return 0, fmt.Errorf("%s x %s: render BLIF: %w", c.Name, lc.name, err)
					}
					sum := sha256.Sum256(blif.Bytes())
					got := hex.EncodeToString(sum[:])
					checked++
					if got != want {
						mismatches++
						fmt.Printf("MISMATCH %s x %s (p=%d memo=%v): got %s want %s\n",
							c.Name, lc.name, p, memo, got, want)
					}
				}
			}
			fmt.Printf("%-6s x %-4s | %d configurations verified\n", c.Name, lc.name, len(goldenParallelisms)*2)
		}
	}
	fmt.Printf("golden: %d configurations checked, %d mismatches\n", checked, mismatches)
	return mismatches, nil
}

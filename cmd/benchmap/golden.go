package main

// Golden-netlist verification: map every ISCAS circuit against every
// library in each configuration a golden file lists, hash each mapped
// netlist's BLIF, and compare against the committed hashes. Any
// difference exits nonzero: refactors, the memo and every mode's
// selection must all be bit-exact no-ops on the output.

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

// goldenRow is one golden configuration: Map options on top of the
// library and its delay model, run once per memo setting in memos.
// Rows where the memo reaches different code run it off and on; both
// runs must hash the same.
type goldenRow struct {
	name  string
	memos []bool
	// opt fills the row's options; optimum is the plain dag-mode delay.
	opt func(o *dagcover.MapOptions, optimum float64)
}

var memoOn, memoOffOn = []bool{true}, []bool{false, true}

// goldenRows lists every known configuration in checking order.
var goldenRows = []goldenRow{
	{"dag", memoOffOn, func(*dagcover.MapOptions, float64) {}},
	{"tree", memoOn, func(o *dagcover.MapOptions, _ float64) { o.Mode = dagcover.ModeTree }},
	{"tree-area", memoOn, func(o *dagcover.MapOptions, _ float64) { o.Mode = dagcover.ModeTreeArea }},
	{"dag-recovery", memoOffOn, func(o *dagcover.MapOptions, _ float64) { o.AreaRecovery = true }},
	{"dag-recovery-rt1.2", memoOffOn, func(o *dagcover.MapOptions, optimum float64) {
		o.AreaRecovery, o.RequiredTime = true, 1.2*optimum
	}},
	{"extended", memoOn, func(o *dagcover.MapOptions, _ float64) { o.Class = dagcover.MatchExtended }},
}

// readGolden parses a golden file: circuit → library → row → sha256.
// golden_iscas.json predates the row level and maps circuit →
// library → sha256 of the dag row; it is read as that one row.
func readGolden(path string) (map[string]map[string]map[string]string, error) {
	doc, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var golden map[string]map[string]map[string]string
	if json.Unmarshal(doc, &golden) == nil {
		return golden, nil
	}
	var dagOnly map[string]map[string]string
	if err := json.Unmarshal(doc, &dagOnly); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	golden = map[string]map[string]map[string]string{}
	for circuit, bylib := range dagOnly {
		golden[circuit] = map[string]map[string]string{}
		for lib, sum := range bylib {
			golden[circuit][lib] = map[string]string{"dag": sum}
		}
	}
	return golden, nil
}

// runGolden verifies the full ISCAS suite against the golden hash
// file. It returns the number of mismatches.
func runGolden(path string) (int, error) {
	golden, err := readGolden(path)
	if err != nil {
		return 0, err
	}
	known := map[string]bool{}
	for _, r := range goldenRows {
		known[r.name] = true
	}
	mismatches, checked := 0, 0
	for _, lc := range libs() {
		cl, err := dagcover.CompileLibrary(lc.lib)
		if err != nil {
			return 0, fmt.Errorf("compile %s: %w", lc.name, err)
		}
		for _, c := range bench.FullSuite() {
			want := golden[c.Name][lc.name]
			if len(want) == 0 {
				return 0, fmt.Errorf("no golden hash for %s x %s in %s", c.Name, lc.name, path)
			}
			for row := range want {
				if !known[row] {
					return 0, fmt.Errorf("%s x %s: unknown golden row %q in %s", c.Name, lc.name, row, path)
				}
			}
			base := dagcover.MapOptions{Library: cl, Delay: lc.delay}
			optimum, _, err := mapHash(c, base)
			if err != nil {
				return 0, err
			}
			n := 0
			for _, row := range goldenRows {
				sum, ok := want[row.name]
				if !ok {
					continue
				}
				opt := base
				row.opt(&opt, optimum)
				for _, memo := range row.memos {
					opt.NoMemo = !memo
					_, got, err := mapHash(c, opt)
					if err != nil {
						return 0, fmt.Errorf("%s x %s %s (memo=%v): %w", c.Name, lc.name, row.name, memo, err)
					}
					checked++
					n++
					if got != sum {
						mismatches++
						fmt.Printf("MISMATCH %s x %s %s (memo=%v): got %s want %s\n",
							c.Name, lc.name, row.name, memo, got, sum)
					}
				}
			}
			fmt.Printf("%-6s x %-4s | %d configurations verified\n", c.Name, lc.name, n)
		}
	}
	fmt.Printf("golden: %d configurations checked, %d mismatches\n", checked, mismatches)
	return mismatches, nil
}

// mapHash maps the circuit and returns the delay and the sha256 of the
// netlist's BLIF.
func mapHash(c bench.Circuit, opt dagcover.MapOptions) (float64, string, error) {
	res, err := dagcover.Map(context.Background(), dagcover.Input{Network: c.Network}, opt)
	if err != nil {
		return 0, "", err
	}
	var blif bytes.Buffer
	if err := res.Netlist.WriteBLIF(&blif); err != nil {
		return 0, "", fmt.Errorf("render BLIF: %w", err)
	}
	sum := sha256.Sum256(blif.Bytes())
	return res.Delay, hex.EncodeToString(sum[:]), nil
}

// Command benchmap holds two gates that a timing harness cannot give:
// byte-exact golden netlists and a peak-heap bound on the streamed
// million-gate families. Timing is perfbench's job (BENCHMARK.json).
//
// Usage:
//
//	benchmap -golden cmd/benchmap/testdata/golden_iscas.json
//	benchmap -golden cmd/benchmap/testdata/golden_modes.json
//	                            # map the full ISCAS suite x {lib2,
//	                            # 44-1, 44-3} in every configuration
//	                            # the file lists (memo off and on where
//	                            # the memo reaches different code), hash
//	                            # each netlist's BLIF and exit nonzero on
//	                            # any difference
//	benchmap -family mult256,alumesh80x80
//	                            # stream, ingest and map the big
//	                            # synthetic families; print BLIF bytes,
//	                            # subject gates, ingest allocations and
//	                            # peak heap
//	benchmap -family alumesh32x32 -maxheap 536870912
//	                            # fail if peak heap exceeds the bound
//	                            # (the CI layout-regression guard)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dagcover"
)

func main() {
	var (
		golden  = flag.String("golden", "", "golden hash file; verify the full ISCAS suite against it")
		family  = flag.String("family", "", "comma-separated streaming families to ingest and map (mult<N>, alumesh<WxH>)")
		maxheap = flag.Uint64("maxheap", 0, "fail if a family run's peak heap exceeds this many bytes (0 = no bound)")
	)
	flag.Parse()
	if *golden == "" && *family == "" {
		fmt.Fprintln(os.Stderr, "benchmap: give -golden or -family")
		flag.Usage()
		os.Exit(2)
	}
	failed := false
	if *golden != "" {
		mismatches, err := runGolden(*golden)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmap:", err)
			os.Exit(1)
		}
		failed = mismatches > 0
	}
	for _, name := range strings.Split(*family, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		fr, err := measureFamily(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmap:", err)
			os.Exit(1)
		}
		fr.print()
		if *maxheap > 0 && fr.PeakHeapBytes > *maxheap {
			fmt.Fprintf(os.Stderr, "benchmap: %s peak heap %d exceeds bound %d\n", name, fr.PeakHeapBytes, *maxheap)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// libConfig is one library of the paper's tables with its delay model.
type libConfig struct {
	name  string
	lib   *dagcover.Library
	delay dagcover.DelayModel
}

// libs returns the three libraries of the paper's tables, in table
// order. lib2 uses the intrinsic pin-delay model like Table 1; the
// 44-x libraries use unit delay like Tables 2-3.
func libs() []libConfig {
	return []libConfig{
		{"lib2", dagcover.Lib2(), dagcover.IntrinsicDelay},
		{"44-1", dagcover.Lib441(), dagcover.UnitDelay},
		{"44-3", dagcover.Lib443(), dagcover.UnitDelay},
	}
}

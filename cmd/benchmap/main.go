// Command benchmap measures the structural match memo on the paper's
// suite: every circuit × library × {memo off, memo on} mapping run,
// with the label/cover wall time, pattern-plan counts and memo hit
// rates written to a JSON report (BENCH_dagcover.json). It doubles as
// the memo's end-to-end correctness gate: for every pair of runs the
// mapped netlists are rendered to BLIF and compared byte for byte, and
// any difference exits nonzero — memoization must be purely a speed
// knob.
//
// Usage:
//
//	benchmap                    # paper suite x {lib2, 44-1, 44-3}
//	benchmap -quick             # C432 + C6288 only (the CI smoke)
//	benchmap -full              # extended 10-circuit suite
//	benchmap -parallel 8        # label with 8 workers
//	benchmap -out bench.json    # report path ("" = stdout only)
//	benchmap -golden cmd/benchmap/testdata/golden_iscas.json
//	                            # verify mapped-netlist hashes over the
//	                            # full ISCAS suite x 3 libraries x
//	                            # parallelism {1,4,8} x memo {off,on};
//	                            # any diff exits nonzero
//	benchmap -family mult256,alumesh80x80 -parallel 8
//	                            # stream, ingest and map the big
//	                            # synthetic families; records ingest
//	                            # MB/s, allocations and peak heap, and
//	                            # compares against the committed
//	                            # pointer-implementation baselines
//	benchmap -family alumesh16x16 -maxheap 268435456
//	                            # fail if peak heap exceeds the bound
//	                            # (the CI layout-regression guard)
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"dagcover"
	"dagcover/internal/bench"
)

// Run is one (circuit, library, memo mode) mapping measurement.
type Run struct {
	Circuit     string `json:"circuit"`
	Library     string `json:"library"`
	Parallelism int    `json:"parallelism"`
	Memo        bool   `json:"memo"`
	// LabelWallNanos is the labeling phase's wall clock — the phase the
	// memo accelerates. CoverNanos is match re-selection, EmitNanos
	// netlist emission and re-timing, RenderNanos WriteBLIF of the
	// mapped netlist, and TotalNanos the whole mapping run (without the
	// render).
	LabelWallNanos int64 `json:"label_wall_ns"`
	CoverNanos     int64 `json:"cover_ns"`
	EmitNanos      int64 `json:"emit_ns"`
	RenderNanos    int64 `json:"render_ns"`
	TotalNanos     int64 `json:"total_ns"`
	PatternsTried  int   `json:"patterns_tried"`
	MemoHits       int   `json:"memo_hits"`
	MemoMisses     int   `json:"memo_misses"`
	// MemoHitRate is hits/(hits+misses) for the run, 0 when off.
	MemoHitRate float64 `json:"memo_hit_rate"`
	MemoEntries int     `json:"memo_entries"`
	Delay       float64 `json:"delay"`
	Cells       int     `json:"cells"`
}

// Report is the BENCH_dagcover.json document.
type Report struct {
	Suite       string `json:"suite"`
	Parallelism int    `json:"parallelism"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	// Identical reports the byte-equality check: every memo-on netlist
	// matched its memo-off twin. benchmap exits nonzero when false, so
	// a committed report always says true.
	Identical bool  `json:"identical"`
	Runs      []Run `json:"runs"`
	// Families holds the streamed million-gate family measurements,
	// when -family was given.
	Families []FamilyRun `json:"families,omitempty"`
}

func main() {
	var (
		out       = flag.String("out", "BENCH_dagcover.json", "report path (empty = stdout summary only)")
		quick     = flag.Bool("quick", false, "run only C432 and C6288 (CI smoke)")
		full      = flag.Bool("full", false, "use the extended 10-circuit suite")
		parallel  = flag.Int("parallel", 1, "labeling workers per mapping run")
		iters     = flag.Int("iters", 3, "mapping runs per configuration; the fastest is reported (memo-on runs after the first measure the warm table)")
		golden    = flag.String("golden", "", "golden hash file; verify the full ISCAS suite against it and exit")
		family    = flag.String("family", "", "comma-separated streaming families to measure (mult<N>, alumesh<WxH>)")
		baselines = flag.String("baselines", "cmd/benchmap/testdata", "directory with baseline_pointer_<family>.json files for comparison")
		maxheap   = flag.Uint64("maxheap", 0, "fail if a family run's peak heap exceeds this many bytes (0 = no bound)")
		famOnly   = flag.Bool("familyonly", false, "skip the suite measurement and run only the -family families (the CI race smoke)")
	)
	flag.Parse()
	if *iters < 1 {
		*iters = 1
	}
	if *golden != "" {
		mismatches, err := runGolden(*golden)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmap:", err)
			os.Exit(1)
		}
		if mismatches > 0 {
			os.Exit(1)
		}
		return
	}
	var rep *Report
	if *famOnly {
		rep = &Report{Suite: "none", Parallelism: *parallel, GoMaxProcs: runtime.GOMAXPROCS(0), Identical: true}
	} else {
		suiteName, circuits := pickSuite(*quick, *full)
		var err error
		rep, err = measure(suiteName, circuits, *parallel, *iters)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmap:", err)
			os.Exit(1)
		}
	}
	heapExceeded := false
	if *family != "" {
		for _, name := range strings.Split(*family, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			fr, err := measureFamily(name, *parallel, *baselines)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmap:", err)
				os.Exit(1)
			}
			printFamily(fr)
			if *maxheap > 0 && fr.PeakHeapBytes > *maxheap {
				fmt.Fprintf(os.Stderr, "benchmap: %s peak heap %d exceeds bound %d\n", name, fr.PeakHeapBytes, *maxheap)
				heapExceeded = true
			}
			rep.Families = append(rep.Families, *fr)
		}
	}
	if *out != "" {
		doc, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmap:", err)
			os.Exit(1)
		}
		doc = append(doc, '\n')
		if err := os.WriteFile(*out, doc, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchmap:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d runs)\n", *out, len(rep.Runs))
	}
	if !rep.Identical {
		fmt.Fprintln(os.Stderr, "benchmap: memo-on output differs from memo-off")
		os.Exit(1)
	}
	if heapExceeded {
		os.Exit(1)
	}
}

func pickSuite(quick, full bool) (string, []bench.Circuit) {
	switch {
	case quick:
		return "quick", []bench.Circuit{
			{Name: "C432", Network: bench.C432()},
			{Name: "C6288", Network: bench.C6288()},
		}
	case full:
		return "full", bench.FullSuite()
	default:
		return "paper", bench.Suite()
	}
}

// libs returns the three libraries of the paper's tables, in table
// order. lib2 uses the intrinsic pin-delay model like Table 1; the
// 44-x libraries use unit delay like Tables 2-3.
func libs() []struct {
	name  string
	lib   *dagcover.Library
	delay dagcover.DelayModel
} {
	return []struct {
		name  string
		lib   *dagcover.Library
		delay dagcover.DelayModel
	}{
		{"lib2", dagcover.Lib2(), dagcover.IntrinsicDelay},
		{"44-1", dagcover.Lib441(), dagcover.UnitDelay},
		{"44-3", dagcover.Lib443(), dagcover.UnitDelay},
	}
}

func measure(suiteName string, circuits []bench.Circuit, parallel, iters int) (*Report, error) {
	rep := &Report{
		Suite:       suiteName,
		Parallelism: parallel,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Identical:   true,
	}
	for _, lc := range libs() {
		cl, err := dagcover.CompileLibrary(lc.lib)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", lc.name, err)
		}
		for _, c := range circuits {
			// Memo off first: the baseline walk, untouched by table state.
			// Then memo on against the same library — its table warms
			// across the suite's circuits exactly as a served library's
			// table warms across requests.
			offRun, offBLIF, err := mapBest(cl, c, lc.name, lc.delay, parallel, false, iters)
			if err != nil {
				return nil, err
			}
			onRun, onBLIF, err := mapBest(cl, c, lc.name, lc.delay, parallel, true, iters)
			if err != nil {
				return nil, err
			}
			rep.Runs = append(rep.Runs, *offRun, *onRun)
			same := bytes.Equal(offBLIF, onBLIF)
			if !same {
				rep.Identical = false
			}
			printPair(offRun, onRun, same)
		}
	}
	return rep, nil
}

// mapBest maps the circuit iters times and keeps the run with the
// smallest labeling wall time (the phase under measurement; single
// runs at millisecond scale are noise-dominated). Every iteration's
// BLIF must be byte-identical — the measurement loop doubles as a
// determinism check within each mode.
func mapBest(cl *dagcover.CompiledLibrary, c bench.Circuit, libName string, delay dagcover.DelayModel, parallel int, memo bool, iters int) (*Run, []byte, error) {
	var best *Run
	var blif []byte
	for i := 0; i < iters; i++ {
		run, b, err := mapOnce(cl, c, libName, delay, parallel, memo)
		if err != nil {
			return nil, nil, err
		}
		if blif == nil {
			blif = b
		} else if !bytes.Equal(blif, b) {
			return nil, nil, fmt.Errorf("%s x %s (memo=%v): iteration %d produced a different netlist",
				c.Name, libName, memo, i)
		}
		if best == nil || run.LabelWallNanos < best.LabelWallNanos {
			best = run
		}
	}
	return best, blif, nil
}

// mapOnce runs one measured mapping and renders the netlist to BLIF.
func mapOnce(cl *dagcover.CompiledLibrary, c bench.Circuit, libName string, delay dagcover.DelayModel, parallel int, memo bool) (*Run, []byte, error) {
	opt := dagcover.MapOptions{Library: cl, Delay: delay, Parallelism: parallel, NoMemo: !memo}
	start := time.Now()
	res, err := dagcover.Map(context.Background(), dagcover.Input{Network: c.Network}, opt)
	if err != nil {
		return nil, nil, fmt.Errorf("%s x %s (memo=%v): %w", c.Name, libName, memo, err)
	}
	total := time.Since(start)
	var blif bytes.Buffer
	start = time.Now()
	if err := res.Netlist.WriteBLIF(&blif); err != nil {
		return nil, nil, fmt.Errorf("%s x %s: render BLIF: %w", c.Name, libName, err)
	}
	render := time.Since(start)
	run := &Run{
		Circuit:        c.Name,
		Library:        libName,
		Parallelism:    parallel,
		Memo:           memo,
		LabelWallNanos: int64(res.Phases.LabelWallMillis * 1e6),
		CoverNanos:     int64(res.Phases.CoverMillis * 1e6),
		EmitNanos:      int64(res.Phases.EmitMillis * 1e6),
		RenderNanos:    render.Nanoseconds(),
		TotalNanos:     total.Nanoseconds(),
		PatternsTried:  res.PatternsTried,
		MemoHits:       res.MemoHits,
		MemoMisses:     res.MemoMisses,
		MemoEntries:    res.MemoEntries,
		Delay:          res.Delay,
		Cells:          res.Cells,
	}
	if n := res.MemoHits + res.MemoMisses; n > 0 {
		run.MemoHitRate = float64(res.MemoHits) / float64(n)
	}
	return run, blif.Bytes(), nil
}

// printPair renders one circuit×library comparison line.
func printPair(off, on *Run, same bool) {
	speedup := 0.0
	if on.LabelWallNanos > 0 {
		speedup = float64(off.LabelWallNanos) / float64(on.LabelWallNanos)
	}
	verdict := "identical"
	if !same {
		verdict = "MISMATCH"
	}
	fmt.Printf("%-6s x %-4s | label %8.1fms -> %8.1fms (%4.1fx) | hit rate %5.1f%% | emit %6.2fms render %6.2fms | %s\n",
		off.Circuit, off.Library,
		float64(off.LabelWallNanos)/1e6, float64(on.LabelWallNanos)/1e6,
		speedup, 100*on.MemoHitRate,
		float64(on.EmitNanos)/1e6, float64(on.RenderNanos)/1e6, verdict)
}

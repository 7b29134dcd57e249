// Command experiments regenerates the paper's evaluation tables and
// the ablations listed in DESIGN.md on the synthesized ISCAS-85-like
// suite.
//
// Usage:
//
//	experiments                # Tables 1-3 on the paper's 5 circuits
//	experiments -table 3       # one table
//	experiments -full          # extended 10-circuit suite
//	experiments -ablations     # A1 (match class), A2 (richness), A3 (area recovery)
//	experiments -verify        # also verify every mapping
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dagcover"
	"dagcover/internal/bench"
	"dagcover/internal/experiments"
)

func main() {
	var (
		table     = flag.String("table", "all", "which table to run: 1, 2, 3 or all")
		full      = flag.Bool("full", false, "use the extended 10-circuit suite")
		doVerify  = flag.Bool("verify", false, "verify every mapping by simulation")
		ablations = flag.Bool("ablations", false, "also run the ablation studies")
		format    = flag.String("format", "text", "table output format: text, csv or json")
		memo      = flag.Bool("memo", true, "memoize match enumeration by canonical cone key (results are identical either way)")
		supers    = flag.Bool("supergates", false, "run only the supergate richness study (E12): 44-1 vs 44-1+supergates vs 44-3")
		tracePath = flag.String("trace", "", "write a Chrome trace_event JSON of every mapping run to this file")
	)
	flag.Parse()
	if *supers {
		suite := bench.Suite()
		if *full {
			suite = bench.FullSuite()
		}
		if err := printSupergateRichness(suite); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*table, *full, *doVerify, *ablations, *format, *memo, *tracePath); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// printSupergateRichness renders study E12.
func printSupergateRichness(suite []bench.Circuit) error {
	opt := dagcover.SupergateOptions{MaxInputs: 5, MaxLeaves: 6, MaxDepth: 3, MaxGates: 512}
	fmt.Printf("Study E12: supergate richness trend, unit delay (bounds: %d inputs, depth %d, %d gates)\n",
		opt.MaxInputs, opt.MaxDepth, opt.MaxGates)
	pts, stats, err := experiments.SupergateRichness(suite, opt)
	if err != nil {
		return err
	}
	fmt.Printf("generated %d supergates from %d base gates (%d classes, %d dominated); all mappings verified\n",
		stats.Emitted, stats.BaseGates, stats.Classes, stats.Dominated)
	fmt.Printf("%-8s | %8s %8s %8s | %8s %8s %9s | %10s\n",
		"circuit", "44-1", "44-1+sg", "44-3", "area", "area+sg", "area 44-3", "gap closed")
	for _, p := range pts {
		fmt.Printf("%-8s | %8.0f %8.0f %8.0f | %8.0f %8.0f %9.0f | %9.1f%%\n",
			p.Circuit, p.Delay441, p.DelaySuper, p.Delay443,
			p.Area441, p.AreaSuper, p.Area443, p.GapClosed)
	}
	fmt.Println("(composing 44-1's own gates into supergates recovers the delay the")
	fmt.Println(" hand-built 44-3 buys with its wide AOI/OAI cells — the Table 2 to")
	fmt.Println(" Table 3 movement, manufactured from library composition alone)")
	return nil
}

func run(table string, full, doVerify, ablations bool, format string, memo bool, tracePath string) error {
	if format != "text" && format != "csv" && format != "json" {
		return fmt.Errorf("unknown format %q", format)
	}
	suite := bench.Suite()
	if full {
		suite = bench.FullSuite()
	}
	var tr *dagcover.Trace
	if tracePath != "" {
		tr = dagcover.NewTrace()
		defer func() {
			if err := tr.WriteFile(tracePath); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: writing trace:", err)
			}
		}()
	}
	opt := experiments.Options{Verify: doVerify, Circuits: suite, Memo: memo, Trace: tr}

	specs := map[string]experiments.TableSpec{
		"1": experiments.Table1(),
		"2": experiments.Table2(),
		"3": experiments.Table3(),
	}
	order := []string{"1", "2", "3"}
	if table != "all" {
		if _, ok := specs[table]; !ok {
			return fmt.Errorf("unknown table %q", table)
		}
		order = []string{table}
	}
	for _, id := range order {
		spec := specs[id]
		start := time.Now()
		rows, err := experiments.Run(spec, opt)
		if err != nil {
			return err
		}
		if format == "csv" {
			fmt.Print(experiments.FormatCSV(spec, rows))
			continue
		}
		if format == "json" {
			doc, err := experiments.FormatJSON(spec, rows)
			if err != nil {
				return err
			}
			fmt.Print(doc)
			continue
		}
		fmt.Print(experiments.Format(spec, rows))
		fmt.Printf("(total %v)\n\n", time.Since(start).Round(time.Millisecond))
	}

	if !ablations {
		return nil
	}
	fmt.Println("Ablation A1: standard vs extended matches (footnote 3), 44-1")
	a1, err := experiments.MatchClassAblation(experiments.Table2(), suite)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s | %9s %9s | %9s %9s\n", "circuit", "std dly", "ext dly", "std cpu", "ext cpu")
	for _, p := range a1 {
		fmt.Printf("%-8s | %9.2f %9.2f | %9s %9s\n",
			p.Circuit, p.StandardDelay, p.ExtendedDelay,
			p.StandardCPU.Round(time.Millisecond), p.ExtendedCPU.Round(time.Millisecond))
	}
	fmt.Println()

	fmt.Println("Ablation A2: library richness sweep on the multiplier (unit delay)")
	a2, err := experiments.RichnessSweep(bench.Circuit{Name: "C6288", Network: bench.C6288()})
	if err != nil {
		return err
	}
	fmt.Printf("%-12s | %6s | %9s %9s\n", "group size", "gates", "tree dly", "DAG dly")
	for _, p := range a2 {
		fmt.Printf("%-12d | %6d | %9.2f %9.2f\n", p.MaxGroupSize, p.Gates, p.TreeDelay, p.DAGDelay)
	}
	fmt.Println()

	fmt.Println("Ablation A3: slack-driven area recovery (lib2, intrinsic delay)")
	a3, err := experiments.AreaRecoveryAblation(experiments.Table1(), suite)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s | %9s | %10s %10s | %7s\n", "circuit", "delay", "plain", "recovered", "saved")
	for _, p := range a3 {
		saved := 0.0
		if p.PlainArea > 0 {
			saved = 100 * (p.PlainArea - p.RecoveredArea) / p.PlainArea
		}
		fmt.Printf("%-8s | %9.2f | %10.0f %10.0f | %6.1f%%\n",
			p.Circuit, p.Delay, p.PlainArea, p.RecoveredArea, saved)
	}
	fmt.Println()

	fmt.Println("Study E3: load-dependent delay and fanout buffering (lib2, best fanout bound)")
	e3, err := experiments.BufferingStudy(experiments.Table1(), suite, 0)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s | %9s | %11s %11s | %7s\n", "circuit", "intrinsic", "loaded", "buffered", "buffers")
	for _, p := range e3 {
		fmt.Printf("%-8s | %9.2f | %11.2f %11.2f | %7d\n",
			p.Circuit, p.Intrinsic, p.LoadedBefore, p.LoadedAfter, p.Buffers)
	}
	fmt.Println()

	fmt.Println("Ablation A4: decomposition sensitivity (44-1, unit delay)")
	a4, err := experiments.DecompositionStudy(experiments.Table2(), suite)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s | %13s %13s | %11s %11s\n",
		"circuit", "balanced dly", "chain dly", "bal nodes", "chain nodes")
	for _, p := range a4 {
		fmt.Printf("%-8s | %13.2f %13.2f | %11d %11d\n",
			p.Circuit, p.BalancedDelay, p.ChainDelay, p.BalancedNodes, p.ChainNodes)
	}
	fmt.Println("(optimality is relative to the subject graph — the paper's §4")
	fmt.Println(" pointer to Lehman et al.'s mapping graphs)")
	fmt.Println()

	fmt.Println("Study E4: LUT area/depth trade-off on the multiplier (k=4, priority cuts)")
	e4, err := experiments.LUTTradeoff(bench.Circuit{Name: "C6288", Network: bench.C6288()}, 4, 4)
	if err != nil {
		return err
	}
	fmt.Printf("%-6s | %6s | %6s\n", "slack", "depth", "LUTs")
	for _, p := range e4 {
		fmt.Printf("%-6d | %6d | %6d\n", p.Slack, p.Depth, p.LUTs)
	}
	fmt.Println()
	return printSizing(suite)
}

// printSizing renders study E5.
func printSizing(suite []bench.Circuit) error {
	fmt.Println("Study E5: discrete gate sizing after load-free mapping (lib2 x1/x2/x4)")
	pts, err := experiments.SizingStudy(suite)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s | %9s | %11s %11s | %6s | %12s %12s\n",
		"circuit", "intrinsic", "loaded", "sized", "swaps", "base match", "sized match")
	for _, p := range pts {
		fmt.Printf("%-8s | %9.2f | %11.2f %11.2f | %6d | %12d %12d\n",
			p.Circuit, p.Intrinsic, p.LoadedBefore, p.LoadedAfter, p.Swaps,
			p.BaseMatches, p.SizedMatches)
	}
	fmt.Println("(mapping under the load-free model cannot tell sizes apart — the")
	fmt.Println(" expanded library only multiplies matching work; sizing afterwards")
	fmt.Println(" recovers the load behaviour, the paper's §5 argument)")
	fmt.Println()
	return printArchitecture()
}

// printArchitecture renders study E6.
func printArchitecture() error {
	fmt.Println("Study E6: architecture vs mapping (44-1, unit delay)")
	pts, err := experiments.ArchitectureStudy(experiments.Table2())
	if err != nil {
		return err
	}
	fmt.Printf("%-10s | %10s | %9s %9s\n", "circuit", "subj depth", "tree dly", "DAG dly")
	for _, p := range pts {
		fmt.Printf("%-10s | %10d | %9.2f %9.2f\n", p.Circuit, p.SubjectDepth, p.TreeDelay, p.DAGDelay)
	}
	fmt.Println("(architectural depth advantages survive mapping; DAG covering")
	fmt.Println(" improves every architecture but replaces none)")
	fmt.Println()
	return printBalance()
}

// printBalance renders study E7.
func printBalance() error {
	fmt.Println("Study E7: AIG-style balancing before DAG covering (44-1, unit delay)")
	pts, err := experiments.BalanceStudy(experiments.Table2(), bench.Suite())
	if err != nil {
		return err
	}
	fmt.Printf("%-8s | %11s %11s | %11s %11s\n",
		"circuit", "plain depth", "bal depth", "plain dly", "bal dly")
	for _, p := range pts {
		fmt.Printf("%-8s | %11d %11d | %11.2f %11.2f\n",
			p.Circuit, p.PlainDepth, p.BalancedDepth, p.PlainDelay, p.BalancedDelay)
	}
	fmt.Println()
	return printChoices()
}

// printChoices renders study E8.
func printChoices() error {
	fmt.Println("Study E8: choice-encoded decompositions (mapping graphs, §4; 44-1, unit delay)")
	pts, err := experiments.ChoiceStudy(experiments.Table2(), bench.Suite())
	if err != nil {
		return err
	}
	fmt.Printf("%-8s | %9s %9s %9s | %11s\n",
		"circuit", "balanced", "chain", "choices", "choice nodes")
	for _, p := range pts {
		fmt.Printf("%-8s | %9.2f %9.2f %9.2f | %11d\n",
			p.Circuit, p.BalancedDelay, p.ChainDelay, p.ChoiceDelay, p.ChoiceNodes)
	}
	fmt.Println("(encoding both decompositions in one subject graph lets the mapper")
	fmt.Println(" beat either alone — the combination the paper's §4 anticipates)")
	fmt.Println()
	return printSupergates()
}

// printSupergates renders study E9.
func printSupergates() error {
	fmt.Println("Study E9: supergate enrichment of lib2 (cap 5 inputs, merge discount 0.85)")
	pts, err := experiments.SupergateStudy(bench.Suite())
	if err != nil {
		return err
	}
	fmt.Printf("%-8s | %10s %10s | %10s %10s\n",
		"circuit", "base dly", "super dly", "base gates", "super gates")
	for _, p := range pts {
		fmt.Printf("%-8s | %10.2f %10.2f | %10d %10d\n",
			p.Circuit, p.BaseDelay, p.SuperDelay, p.BaseGates, p.SuperGates)
	}
	fmt.Println("(manufactured complex gates buy the same effect as a hand-built")
	fmt.Println(" rich library — the Table 2 to Table 3 movement, automated)")
	fmt.Println()
	return printLibTradeoff()
}

// printLibTradeoff renders study E10.
func printLibTradeoff() error {
	fmt.Println("Study E10: library-mapping area/delay trade-off (lib2, C6288)")
	pts, err := experiments.LibraryTradeoff(experiments.Table1(),
		bench.Circuit{Name: "C6288", Network: bench.C6288()}, []int{0, 5, 10, 20, 40})
	if err != nil {
		return err
	}
	fmt.Printf("%-7s | %9s | %10s\n", "slack", "delay", "area")
	for _, p := range pts {
		fmt.Printf("%6d%% | %9.2f | %10.0f\n", p.SlackPercent, p.Delay, p.Area)
	}
	fmt.Println("(the conclusion's announced extension of Cong & Ding's area/depth")
	fmt.Println(" trade-off to library-based mapping)")
	fmt.Println()
	return printSequential()
}

// printSequential renders study E11.
func printSequential() error {
	fmt.Println("Study E11: sequential mapping — Pan-Liu joint optimization vs the")
	fmt.Println("three-step flow (k=4 LUTs, unit delay)")
	pts, err := experiments.SequentialStudy(4)
	if err != nil {
		return err
	}
	fmt.Printf("%-9s | %12s %12s | %6s %6s\n", "circuit", "joint period", "3-step", "LUTs", "regs")
	for _, p := range pts {
		fmt.Printf("%-9s | %12d %12.0f | %6d %6d\n",
			p.Circuit, p.JointPeriod, p.ThreeStep, p.LUTs, p.Registers)
	}
	fmt.Println("(cuts crossing registers let the joint optimization re-place them")
	fmt.Println(" between its own LUT levels — the §4 algorithm; on the register-")
	fmt.Println(" split XOR pipeline of the test suite it wins 1 vs 2)")
	return nil
}

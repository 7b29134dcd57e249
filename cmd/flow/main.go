// Command flow runs the full synthesis pipeline on a BLIF circuit:
// technology decomposition (optionally with choice-encoded
// decompositions), AIG-style balancing, delay-optimal DAG covering
// with slack-driven area recovery, discrete gate sizing, fanout
// buffering, and final verification — every stage reported.
//
// Usage:
//
//	flow circuit.blif
//	flow -lib 44-3 -delay unit -choices=false circuit.blif
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"dagcover"
	"dagcover/internal/genlib"
	"dagcover/internal/libgen"
	"dagcover/internal/mapping"
)

func main() {
	var (
		libName = flag.String("lib", "lib2", "library: lib2, 44-1, 44-3, or a genlib file")
		delay   = flag.String("delay", "intrinsic", "delay model: intrinsic or unit")
		choices = flag.Bool("choices", true, "map over choice-encoded decompositions")
		balance = flag.Bool("balance", true, "balance the subject graph first")
		size    = flag.Bool("size", true, "discrete gate sizing after mapping (x1/x2/x4)")
		buffers = flag.Int("maxfanout", 16, "fanout bound for buffering (0 disables)")
		output  = flag.String("o", "", "write the final netlist (.gate BLIF)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: flow [flags] circuit.blif")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *libName, *delay, *choices, *balance, *size, *buffers, *output); err != nil {
		fmt.Fprintln(os.Stderr, "flow:", err)
		os.Exit(1)
	}
}

func run(path, libName, delayName string, useChoices, useBalance, useSizing bool, maxFanout int, output string) error {
	lib, err := loadLibrary(libName)
	if err != nil {
		return err
	}
	dm, err := dagcover.ParseDelayModel(delayName)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	nw, err := dagcover.ParseBLIF(f)
	if err != nil {
		return err
	}
	st, err := nw.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("[1] read %s: %v\n", nw.Name, st)

	cl, err := dagcover.CompileLibrary(lib)
	if err != nil {
		return err
	}
	opt := dagcover.MapOptions{Library: cl, Delay: dm, AreaRecovery: true}
	ctx := context.Background()
	if len(nw.Latches()) > 0 {
		// Sequential circuit: map the combinational portion and retime
		// (the post-mapping passes below operate on combinational
		// netlists).
		res, err := dagcover.MapSequential(ctx, nw, opt)
		if err != nil {
			return err
		}
		fmt.Printf("[2] sequential flow: comb delay=%.3f area=%.0f cells=%d\n",
			res.Comb.Delay, res.Comb.Area, res.Comb.Cells)
		fmt.Printf("[3] clock period %.3f -> %.3f after retiming (%d latches)\n",
			res.PeriodBefore, res.PeriodAfter, len(res.Network.Latches()))
		if output != "" {
			out, err := os.Create(output)
			if err != nil {
				return err
			}
			defer out.Close()
			if err := dagcover.WriteBLIF(out, res.Network); err != nil {
				return err
			}
			fmt.Printf("[4] wrote %s\n", output)
		}
		return nil
	}
	var res *dagcover.MapResult
	if useChoices {
		opt.Mode = dagcover.ModeChoices
		res, err = dagcover.Map(ctx, dagcover.Input{Network: nw}, opt)
		if err != nil {
			return err
		}
		fmt.Printf("[2] choice-encoded subject graph: %d nodes\n", res.SubjectNodes)
	} else {
		g, err := dagcover.BuildSubject(nw)
		if err != nil {
			return err
		}
		fmt.Printf("[2] subject graph: %d nodes\n", g.NumNodes())
		if useBalance {
			g, err = dagcover.BalanceSubject(g)
			if err != nil {
				return err
			}
			fmt.Printf("[3] balanced: %d nodes\n", g.NumNodes())
		}
		res, err = dagcover.Map(ctx, dagcover.Input{Subject: g}, opt)
		if err != nil {
			return err
		}
	}
	fmt.Printf("[4] DAG covering (+area recovery): delay=%.3f area=%.0f cells=%d (cpu %v)\n",
		res.Delay, res.Area, res.Cells, res.CPU)

	nl := res.Netlist
	if useSizing {
		sized := libgen.Sized(lib, []float64{1, 2, 4})
		groups := genlib.VariantGroups(sized)
		rebased := nl.Clone()
		for _, cell := range rebased.Cells {
			if vs := groups[cell.Gate.FunctionKey()]; len(vs) > 0 {
				cell.Gate = vs[0]
			}
		}
		out, swaps, err := rebased.SizeCells(groups, mapping.LoadOptions{}, 200)
		if err != nil {
			return err
		}
		before, _ := nl.DelayLoaded(mapping.LoadOptions{})
		after, _ := out.DelayLoaded(mapping.LoadOptions{})
		fmt.Printf("[5] gate sizing: %d swaps, loaded delay %.3f -> %.3f\n",
			swaps, before.Delay, after.Delay)
		nl = out
	}
	if maxFanout > 1 {
		if buf := lib.Buffer(); buf != nil {
			buffered, err := nl.InsertBuffers(buf, maxFanout)
			if err != nil {
				return err
			}
			fmt.Printf("[6] buffering (max fanout %d): %d -> %d cells\n",
				maxFanout, nl.NumCells(), buffered.NumCells())
			nl = buffered
		} else {
			fmt.Printf("[6] buffering skipped: library %q has no buffer gate\n", lib.Name)
		}
	}

	if err := dagcover.Verify(nw, nl); err != nil {
		return fmt.Errorf("final verification FAILED: %v", err)
	}
	loaded, err := nl.DelayLoaded(mapping.LoadOptions{})
	if err != nil {
		return err
	}
	tm, err := nl.Delay(dm, nil)
	if err != nil {
		return err
	}
	fmt.Printf("[7] verified equivalent; final: %d cells, area %.0f, %s delay %.3f, loaded delay %.3f\n",
		nl.NumCells(), nl.Area(), dm.Name(), tm.Delay, loaded.Delay)
	if output != "" {
		out, err := os.Create(output)
		if err != nil {
			return err
		}
		defer out.Close()
		if err := nl.WriteBLIF(out); err != nil {
			return err
		}
		fmt.Printf("[8] wrote %s\n", output)
	}
	return nil
}

func loadLibrary(name string) (*dagcover.Library, error) {
	switch name {
	case "lib2":
		return dagcover.Lib2(), nil
	case "44-1":
		return dagcover.Lib441(), nil
	case "44-3":
		return dagcover.Lib443(), nil
	}
	f, err := os.Open(name)
	if err != nil {
		return nil, fmt.Errorf("library %q is not built in and could not be opened: %v", name, err)
	}
	defer f.Close()
	return dagcover.LoadLibrary(name, f)
}

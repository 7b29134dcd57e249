// Command lutmap maps a BLIF circuit onto k-input LUTs with the
// FlowMap algorithm (depth-optimal labeling by network flow).
//
// Usage:
//
//	lutmap -k 4 circuit.blif
//	lutmap -k 6 -o mapped.blif -verify circuit.blif
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"dagcover"
)

// exitTimeout is the exit status for a mapping stopped by -timeout,
// distinct from usage (2) and other errors (1) so scripts can retry
// with a longer budget.
const exitTimeout = 3

func main() {
	var (
		k         = flag.Int("k", 4, "LUT input count")
		mode      = flag.String("mode", "depth", "objective: depth (FlowMap) or area (priority cuts)")
		slack     = flag.Int("slack", 0, "area mode: allowed depth above optimal")
		output    = flag.String("o", "", "write the LUT netlist as BLIF to this file")
		doVerify  = flag.Bool("verify", false, "verify the mapping against the input by simulation")
		timeout   = flag.Duration("timeout", 0, "abort mapping after this duration (0 = no limit)")
		tracePath = flag.String("trace", "", "write a Chrome trace_event JSON of the mapping pipeline to this file")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: lutmap [flags] circuit.blif")
		flag.PrintDefaults()
		os.Exit(2)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if err := run(ctx, flag.Arg(0), *k, *mode, *slack, *output, *doVerify, *tracePath); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "lutmap: mapping did not finish within the %v timeout (%v)\n", *timeout, err)
			os.Exit(exitTimeout)
		}
		fmt.Fprintln(os.Stderr, "lutmap:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, path string, k int, mode string, slack int, output string, doVerify bool, tracePath string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	nw, err := dagcover.ParseBLIF(f)
	if err != nil {
		return err
	}
	var tr *dagcover.Trace
	if tracePath != "" {
		tr = dagcover.NewTrace()
	}
	opt := dagcover.MapOptions{Mode: dagcover.ModeLUT, K: k, Slack: slack, Trace: tr}
	switch mode {
	case "depth":
	case "area":
		opt.Mode = dagcover.ModeLUTArea
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}
	res, err := dagcover.Map(ctx, dagcover.Input{Network: nw}, opt)
	if err != nil {
		return err
	}
	if opt.Mode == dagcover.ModeLUT {
		fmt.Printf("%s: FlowMap with k=%d\n", nw.Name, k)
	} else {
		fmt.Printf("%s: priority cuts, area mode, k=%d slack=%d (optimal depth %d)\n",
			nw.Name, k, slack, res.OptimalDepth)
	}
	fmt.Printf("  depth: %d\n", res.Depth)
	fmt.Printf("  LUTs:  %d\n", res.LUTs)
	if doVerify {
		if err := dagcover.VerifyNetworks(nw, res.Network); err != nil {
			return fmt.Errorf("verification FAILED: %v", err)
		}
		fmt.Println("  verification: equivalent")
	}
	if output != "" {
		out, err := os.Create(output)
		if err != nil {
			return err
		}
		defer out.Close()
		if err := dagcover.WriteBLIF(out, res.Network); err != nil {
			return err
		}
		fmt.Printf("  wrote: %s\n", output)
	}
	if tr != nil {
		if err := tr.WriteFile(tracePath); err != nil {
			return fmt.Errorf("writing trace: %v", err)
		}
		fmt.Printf("  trace: %s\n", tracePath)
	}
	return nil
}

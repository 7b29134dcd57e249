// Command genbench emits the synthesized benchmark circuits as BLIF
// files.
//
// Usage:
//
//	genbench -list
//	genbench -circuit c6288 -o c6288.blif
//	genbench -circuit mult512 -o mult512.blif
//	genbench -all -dir bench_out
//
// Beyond the fixed suite, parameterized streaming families are
// available by name: mult<N> (N x N array multiplier; mult256 exceeds
// a million subject gates) and alumesh<WxH> (mesh of 4-bit ALU tiles).
// These are written line by line without building the circuit in
// memory, so multi-million-gate benchmarks generate in seconds within
// a modest heap; they replace externally sourced large benchmarks.
// -all emits only the fixed suite.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"dagcover"
	"dagcover/internal/bench"
	"dagcover/internal/network"
)

var generators = map[string]func() *network.Network{
	"c432":         bench.C432,
	"c499":         bench.C499,
	"c880":         bench.C880,
	"c1355":        bench.C1355,
	"c1908":        bench.C1908,
	"c2670":        bench.C2670,
	"c3540":        bench.C3540,
	"c5315":        bench.C5315,
	"c6288":        bench.C6288,
	"c7552":        bench.C7552,
	"adder16":      func() *network.Network { return bench.RippleAdder(16) },
	"csadder32":    func() *network.Network { return bench.CarrySelectAdder(32, 4) },
	"mult8":        func() *network.Network { return bench.ArrayMultiplier(8) },
	"alu8":         func() *network.Network { return bench.ALU(8) },
	"cmp16":        func() *network.Network { return bench.Comparator(16) },
	"parity32":     func() *network.Network { return bench.ParityTree(32) },
	"hamming32":    func() *network.Network { return bench.HammingDecoder(32) },
	"correlator16": func() *network.Network { return bench.Correlator(16) },
	"palu8":        func() *network.Network { return bench.PipelinedALU(8, 2) },
	"kogge32":      func() *network.Network { return bench.KoggeStoneAdder(32) },
	"wallace8":     func() *network.Network { return bench.WallaceMultiplier(8) },
	"bshift16":     func() *network.Network { return bench.BarrelShifter(16) },
	"mux32":        func() *network.Network { return bench.MuxTree(5) },
	"decoder5":     func() *network.Network { return bench.Decoder(5) },
	"prio16":       func() *network.Network { return bench.PriorityEncoder(16) },
	"counter8":     func() *network.Network { return bench.Counter(8) },
}

func main() {
	var (
		list    = flag.Bool("list", false, "list available circuits")
		circuit = flag.String("circuit", "", "circuit to generate")
		output  = flag.String("o", "", "output file (default stdout)")
		all     = flag.Bool("all", false, "generate every circuit")
		dir     = flag.String("dir", ".", "output directory for -all")
	)
	flag.Parse()
	switch {
	case *list:
		names := make([]string, 0, len(generators))
		for n := range generators {
			names = append(names, n)
		}
		slices.Sort(names)
		fmt.Println(strings.Join(names, "\n"))
		fmt.Println("mult<N>       (streamed; N up to 4096, e.g. mult512)")
		fmt.Println("alumesh<WxH>  (streamed; W,H up to 1024, e.g. alumesh64x64)")
	case *all:
		for name, gen := range generators {
			path := filepath.Join(*dir, name+".blif")
			if err := writeCircuit(gen(), path); err != nil {
				fmt.Fprintln(os.Stderr, "genbench:", err)
				os.Exit(1)
			}
			fmt.Println("wrote", path)
		}
	case *circuit != "":
		name := strings.ToLower(*circuit)
		if stream, ok := bench.StreamFamily(name); ok {
			if err := writeStreamed(stream, *output); err != nil {
				fmt.Fprintln(os.Stderr, "genbench:", err)
				os.Exit(1)
			}
			if *output != "" {
				fmt.Println("wrote", *output)
			}
			return
		}
		gen, ok := generators[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "genbench: unknown circuit %q (try -list)\n", *circuit)
			os.Exit(1)
		}
		nw := gen()
		if *output == "" {
			if err := dagcover.WriteBLIF(os.Stdout, nw); err != nil {
				fmt.Fprintln(os.Stderr, "genbench:", err)
				os.Exit(1)
			}
			return
		}
		if err := writeCircuit(nw, *output); err != nil {
			fmt.Fprintln(os.Stderr, "genbench:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *output)
	default:
		flag.PrintDefaults()
		os.Exit(2)
	}
}

// writeStreamed runs a streaming family generator straight into the
// output file (or stdout), never materializing the circuit.
func writeStreamed(stream func(w io.Writer) error, path string) error {
	if path == "" {
		return stream(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := stream(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeCircuit(nw *network.Network, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return dagcover.WriteBLIF(f, nw)
}

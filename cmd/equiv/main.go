// Command equiv checks two BLIF circuits for functional equivalence
// by exhaustive (small input counts) or random simulation. The second
// circuit may be a mapped netlist using .gate constructs, resolved
// against a library.
//
// Usage:
//
//	equiv golden.blif candidate.blif
//	equiv -lib lib2 golden.blif mapped.blif
package main

import (
	"flag"
	"fmt"
	"os"

	"dagcover"
)

func main() {
	libName := flag.String("lib", "", "library for .gate constructs in the candidate (lib2, 44-1, 44-3 or a genlib file)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: equiv [flags] golden.blif candidate.blif")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err := run(flag.Arg(0), flag.Arg(1), *libName); err != nil {
		fmt.Fprintln(os.Stderr, "equiv:", err)
		os.Exit(1)
	}
	fmt.Println("equivalent")
}

func run(goldenPath, candPath, libName string) error {
	gf, err := os.Open(goldenPath)
	if err != nil {
		return err
	}
	defer gf.Close()
	golden, err := dagcover.ParseBLIF(gf)
	if err != nil {
		return fmt.Errorf("%s: %v", goldenPath, err)
	}
	cf, err := os.Open(candPath)
	if err != nil {
		return err
	}
	defer cf.Close()
	var cand *dagcover.Network
	if libName == "" {
		cand, err = dagcover.ParseBLIF(cf)
	} else {
		var lib *dagcover.Library
		lib, err = dagcover.OpenLibrary(libName)
		if err != nil {
			return err
		}
		cand, err = dagcover.ParseMappedBLIF(cf, lib)
	}
	if err != nil {
		return fmt.Errorf("%s: %v", candPath, err)
	}
	return dagcover.VerifyNetworks(golden, cand)
}

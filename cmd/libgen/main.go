// Command libgen emits the synthesized gate libraries as genlib text.
//
// Usage:
//
//	libgen -lib lib2            # the lib2-like standard-cell library
//	libgen -lib 44-3 -o 44-3.genlib
//	libgen -rich -groupsize 3   # parameterized complex-gate library
package main

import (
	"flag"
	"fmt"
	"os"

	"dagcover"
	"dagcover/internal/libgen"
)

func main() {
	var (
		libName   = flag.String("lib", "lib2", "library: lib2, 44-1 or 44-3")
		output    = flag.String("o", "", "output file (default stdout)")
		rich      = flag.Bool("rich", false, "generate a parameterized rich library instead")
		groups    = flag.Int("groups", 4, "rich: maximum AOI/OAI group count")
		groupSize = flag.Int("groupsize", 4, "rich: maximum literals per group")
		threeLvl  = flag.Bool("threelevel", false, "rich: include 3-level gates")
		xor       = flag.Bool("xor", false, "rich: include the XOR/majority family")
	)
	flag.Parse()

	var lib *dagcover.Library
	if *rich {
		lib = libgen.Rich(fmt.Sprintf("rich-%dx%d", *groups, *groupSize), libgen.RichOptions{
			MaxGroups:    *groups,
			MaxGroupSize: *groupSize,
			ThreeLevel:   *threeLvl,
			XorFamily:    *xor,
		})
	} else {
		build, ok := dagcover.BuiltinLibrary(*libName)
		if !ok {
			fmt.Fprintf(os.Stderr, "libgen: unknown library %q\n", *libName)
			os.Exit(1)
		}
		lib = build()
	}

	out := os.Stdout
	if *output != "" {
		f, err := os.Create(*output)
		if err != nil {
			fmt.Fprintln(os.Stderr, "libgen:", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}
	if err := dagcover.WriteLibrary(out, lib); err != nil {
		fmt.Fprintln(os.Stderr, "libgen:", err)
		os.Exit(1)
	}
	if *output != "" {
		fmt.Printf("wrote %s (%d gates)\n", *output, len(lib.Gates))
	}
}

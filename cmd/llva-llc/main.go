// llva-llc is the offline static translator: it compiles virtual object
// code to native code for a simulated I-ISA — across a worker pool, one
// worker per CPU — and reports the paper's Table 2
// per-function metrics.
//
// Usage: llva-llc [-target vx86|vsparc] [-stats] input.bc
package main

import (
	"flag"
	"fmt"
	"os"

	"llva/internal/llee"
	"llva/internal/obj"
	"llva/internal/target"
)

func main() {
	tgt := flag.String("target", "vsparc", "target I-ISA: vx86 or vsparc")
	stats := flag.Bool("stats", true, "print per-function translation metrics")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: llva-llc [-target vx86|vsparc] input.bc")
		os.Exit(2)
	}
	var d *target.Desc
	switch *tgt {
	case "vx86":
		d = target.VX86
	case "vsparc":
		d = target.VSPARC
	default:
		fatal(fmt.Errorf("unknown target %q", *tgt))
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	m, err := obj.Decode(data)
	if err != nil {
		fatal(err)
	}
	sys := llee.NewSystem()
	nobj, err := sys.Translate(m, d)
	if err != nil {
		fatal(err)
	}
	if *stats {
		fmt.Printf("%-24s %10s %10s %8s %10s\n", "function", "#llva", "#native", "ratio", "bytes")
		totLLVA, totNative, totBytes := 0, 0, 0
		for _, f := range nobj.Funcs {
			ratio := 0.0
			if f.NumLLVA > 0 {
				ratio = float64(f.NumInstrs) / float64(f.NumLLVA)
			}
			fmt.Printf("%-24s %10d %10d %8.2f %10d\n",
				f.Name, f.NumLLVA, f.NumInstrs, ratio, len(f.Code))
			totLLVA += f.NumLLVA
			totNative += f.NumInstrs
			totBytes += len(f.Code)
		}
		fmt.Printf("%-24s %10d %10d %8.2f %10d\n", "TOTAL",
			totLLVA, totNative, float64(totNative)/float64(totLLVA), totBytes)
		fmt.Printf("llva object size: %d bytes; native size: %d bytes (%.2fx)\n",
			len(data), totBytes, float64(totBytes)/float64(len(data)))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "llva-llc:", err)
	os.Exit(1)
}

// llva-llc is the offline static translator: it compiles virtual object
// code to native code for a simulated I-ISA, one function after another
// in module order, and reports the paper's Table 2 per-function metrics,
// with the callee-saved registers each prologue saves and the spill
// stores register allocation left.
// With -S it also prints each function's native code, one instruction a
// line: its byte offset, the instruction, its cycles in the target's
// timing model, and the symbol of a relocation it carries.
//
// Usage: llva-llc [-target vx86|vsparc] [-stats] [-S] input.bc
package main

import (
	"flag"
	"fmt"
	"os"

	"llva/internal/codegen"
	"llva/internal/obj"
	"llva/internal/target"
	"llva/internal/telemetry"
)

func main() {
	tgt := flag.String("target", "vsparc", "target I-ISA: vx86 or vsparc")
	stats := flag.Bool("stats", true, "print per-function translation metrics")
	asm := flag.Bool("S", false, "print each function's native code")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: llva-llc [-target vx86|vsparc] [-stats] [-S] input.bc")
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
	tr, err := codegen.New(d, m)
	if err != nil {
		fatal(err)
	}
	// Each function's saves and spills are what the translator's
	// counters gained while it translated that function.
	reg := telemetry.New()
	tr.SetTelemetry(reg)
	type row struct {
		f              *codegen.NativeFunc
		saved, spilled uint64
	}
	var rows []row
	for _, f := range m.Functions {
		if f.IsDeclaration() {
			continue
		}
		saves, spills := reg.CounterValue(codegen.MetricSaves), reg.CounterValue(codegen.MetricSpills)
		nf, err := tr.TranslateFunction(f)
		if err != nil {
			fatal(err)
		}
		rows = append(rows, row{nf, reg.CounterValue(codegen.MetricSaves) - saves,
			reg.CounterValue(codegen.MetricSpills) - spills})
	}
	if *asm {
		for _, r := range rows {
			if err := printCode(d, r.f); err != nil {
				fatal(err)
			}
		}
	}
	if *stats {
		const line = "%-24s %10d %10d %8.2f %10d %6d %6d\n"
		fmt.Printf("%-24s %10s %10s %8s %10s %6s %6s\n", "function", "#llva", "#native", "ratio", "bytes", "saved", "spills")
		totLLVA, totNative, totBytes := 0, 0, 0
		var totSaved, totSpilled uint64
		for _, r := range rows {
			f := r.f
			ratio := 0.0
			if f.NumLLVA > 0 {
				ratio = float64(f.NumInstrs) / float64(f.NumLLVA)
			}
			fmt.Printf(line, f.Name, f.NumLLVA, f.NumInstrs, ratio, len(f.Code), r.saved, r.spilled)
			totLLVA += f.NumLLVA
			totNative += f.NumInstrs
			totBytes += len(f.Code)
			totSaved += r.saved
			totSpilled += r.spilled
		}
		fmt.Printf(line, "TOTAL", totLLVA, totNative, float64(totNative)/float64(totLLVA),
			totBytes, totSaved, totSpilled)
		fmt.Printf("llva object size: %d bytes; native size: %d bytes (%.2fx)\n",
			len(data), totBytes, float64(totBytes)/float64(len(data)))
	}
}

// printCode prints f's native code as translated: relocation slots read
// as zero, so a relocated operand shows its symbol beside it, and a
// branch shows the offset it goes to.
func printCode(d *target.Desc, f *codegen.NativeFunc) error {
	fmt.Printf("%s:\n", f.Name)
	r := 0
	for off := 0; off < len(f.Code); {
		in, n, err := d.DecodeFrom(f.Code, off)
		if err != nil {
			return fmt.Errorf("%s+%#x: %v", f.Name, off, err)
		}
		line := fmt.Sprintf("  %04x  %-36s %2d", off, in.String(), d.Cycles(&in))
		if in.Op.Is(target.Branches) {
			line += fmt.Sprintf("  => %04x", off+int(in.Target)*d.RelBranchScale)
		}
		for ; r < len(f.Relocs) && int(f.Relocs[r].Offset) < off+n; r++ {
			line += "  @" + f.Relocs[r].Sym
		}
		fmt.Println(line)
		off += n
	}
	fmt.Println()
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "llva-llc:", err)
	os.Exit(1)
}

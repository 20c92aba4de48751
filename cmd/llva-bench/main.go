// llva-bench regenerates the paper's Table 2 ("Metrics demonstrating code
// size and low-level nature of the V-ISA") over the workload suite:
//
//	program, LOC, native size, LLVA size, #LLVA instructions,
//	#vx86 instructions + ratio, #vsparc instructions + ratio,
//	JIT translate time, run time, translate/run ratio.
//
// Like the paper, native code size is measured on the SPARC-flavoured
// target, the translate time is the whole-program JIT compile time for
// the x86-flavoured target, and the run time is the program's execution
// (here: on the simulated vx86 processor, by the execution manager from
// its offline cache; the table prints virtual seconds at 1 GHz, the ratio
// uses host wall clock for both sides). With -tier2 the run is the one
// llva-run -tier2 gives a user whose earlier run stored a guest profile.
//
// Every column but the two timings is exact, and TestNativeGolden in
// internal/codegen holds those of the table without -tier2. Timing
// claims belong to ./benchmark.
//
// Usage: llva-bench [-workload NAME] [-tier2]
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"llva/internal/codegen"
	"llva/internal/core"
	"llva/internal/image"
	"llva/internal/llee"
	"llva/internal/mem"
	"llva/internal/obj"
	"llva/internal/prof"
	"llva/internal/target"
	"llva/internal/workloads"
)

// Row is one Table 2 line.
type Row struct {
	PaperName string
	LOC       int
	NativeKB  float64 // vsparc native code size
	// DataKB is the built static data segment, reported separately so
	// data-dominated modules are visible: the .bc size (LLVAKB) embeds
	// initialized global data while NativeKB counts code only, which
	// distorts the size ratio for programs like anagram whose dictionary
	// rivals their code. (The segment can't simply be added to the native
	// side: it materializes zero-initialized arrays the .bc encodes in a
	// few bytes.)
	DataKB      float64
	LLVAKB      float64
	NumLLVA     int
	NumX86      int
	RatioX86    float64
	NumSparc    int
	RatioSparc  float64
	TranslateS  float64 // vx86 whole-program JIT, host seconds
	RunVirtualS float64 // vx86 cycles at 1 GHz
	Ratio       float64 // TranslateS over the run's host wall clock
}

// measureRun runs the workload the way llva-run would, through two
// llee.Systems sharing one in-memory storage API: a cold process (each
// function translated at its first call, written back after the run)
// followed by a warm one (stamp-validated cache hit). With tier2, the cold
// process also profiles the guest and persists its profile, and the warm
// one, built WithTier2, finds the cached code and the profile and
// translates the hot functions at tier 2 before it runs. The row's run columns are the warm process's
// run, whose output must match the cold run's byte for byte.
func measureRun(row *Row, m *core.Module, tier2 bool) error {
	st := llee.NewMemStorage()
	var res llee.Result
	runOne := func(out io.Writer, opts []llee.SystemOption, sessOpts []llee.SessionOption) error {
		sys := llee.NewSystem(append([]llee.SystemOption{llee.WithStorage(st)}, opts...)...)
		sess, err := sys.NewSession(m, target.VX86, out, sessOpts...)
		if err != nil {
			return err
		}
		res, err = sess.Run(context.Background(), "main")
		if err != nil && !errors.Is(err, llee.ErrExit) {
			sys.Close()
			return err
		}
		if sess.Profiler() != nil {
			if err := sess.StoreGuestProfile(); err != nil {
				sys.Close()
				return err
			}
		}
		return sys.Close()
	}
	var cold, warm bytes.Buffer
	var coldOpts []llee.SessionOption
	var warmOpts []llee.SystemOption
	if tier2 {
		// Cold: tier-1 JIT under the profiler; the profile is persisted,
		// the translations are written back. The profile is the exact
		// block entries, whatever the sampling rate, so it, and with it
		// the tier-2 code, is reproducible.
		coldOpts = []llee.SessionOption{llee.WithProfiler(prof.NewProfiler(0))}
		warmOpts = []llee.SystemOption{llee.WithTier2(true)}
	}
	if err := runOne(&cold, nil, coldOpts); err != nil {
		return err
	}
	// Warm: the cold run's code decodes from storage; with tier2 the hot
	// functions are translated again, at tier 2, before the run.
	if err := runOne(&warm, warmOpts, nil); err != nil {
		return err
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		return fmt.Errorf("warm output differs from the cold run's (%d vs %d bytes)", warm.Len(), cold.Len())
	}
	row.RunVirtualS = float64(res.Cycles) / 1e9
	if wall := res.Wall.Seconds(); wall > 0 {
		row.Ratio = row.TranslateS / wall
	}
	return nil
}

// Measure computes one row. The size and expansion columns are static
// properties of the tier-1 translation; the run columns are the warm run
// of measureRun.
func Measure(w *workloads.Workload, tier2 bool) (*Row, error) {
	m, err := w.CompileOptimized()
	if err != nil {
		return nil, err
	}
	row := &Row{PaperName: w.PaperName, LOC: w.LOC()}

	// Virtual object code size (paper column 4) and the static data
	// segment, reported separately so code compares with code (E1).
	enc, err := obj.Encode(m)
	if err != nil {
		return nil, err
	}
	row.LLVAKB = float64(len(enc)) / 1024
	img, err := image.Build(m, mem.NullGuard)
	if err != nil {
		return nil, err
	}
	row.DataKB = float64(len(img.Bytes)) / 1024

	for _, f := range m.Functions {
		row.NumLLVA += f.NumInstructions()
	}

	// vsparc: native size (paper column 3) and expansion (columns 8-9).
	trS, err := codegen.New(target.VSPARC, m)
	if err != nil {
		return nil, err
	}
	objS, err := trS.TranslateModule()
	if err != nil {
		return nil, err
	}
	row.NativeKB = float64(objS.CodeSize()) / 1024
	row.NumSparc = objS.NumInstrs()
	row.RatioSparc = float64(row.NumSparc) / float64(row.NumLLVA)

	// vx86: expansion (columns 5-7) and JIT translate time (column 10),
	// compiling the entire program serially like the paper's JIT
	// measurement.
	trX, err := codegen.New(target.VX86, m)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	objX, err := trX.TranslateModule()
	if err != nil {
		return nil, err
	}
	row.TranslateS = time.Since(start).Seconds()
	row.NumX86 = objX.NumInstrs()
	row.RatioX86 = float64(row.NumX86) / float64(row.NumLLVA)

	// Run time (column 11) on the simulated vx86 processor.
	if err := measureRun(row, m, tier2); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	return row, nil
}

func main() {
	one := flag.String("workload", "", "measure a single workload")
	tier2 := flag.Bool("tier2", false, "profile-guided tier-2 measurement: the run columns reflect the superblock-optimized code the execution manager builds from a deterministic profile run (output must stay byte-identical)")
	flag.Parse()

	suite := workloads.All()
	if *one != "" {
		w := workloads.ByName(*one)
		if w == nil {
			fmt.Fprintf(os.Stderr, "llva-bench: unknown workload %q\n", *one)
			os.Exit(2)
		}
		suite = []*workloads.Workload{w}
	}

	fmt.Printf("%-18s %5s %9s %7s %8s %7s %7s %6s %8s %6s %10s %10s %7s\n",
		"Program", "LOC", "NativeKB", "DataKB", "LLVAKB", "#LLVA", "#vx86", "ratio",
		"#vsparc", "ratio", "Transl(s)", "Run(s)", "Tr/Run")
	var sumRX, sumRS, nat, llva float64
	for _, w := range suite {
		r, err := Measure(w, *tier2)
		if err != nil {
			fmt.Fprintf(os.Stderr, "llva-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%-18s %5d %9.1f %7.1f %8.1f %7d %7d %6.2f %8d %6.2f %10.4f %10.4f %7.3f\n",
			r.PaperName, r.LOC, r.NativeKB, r.DataKB, r.LLVAKB, r.NumLLVA,
			r.NumX86, r.RatioX86, r.NumSparc, r.RatioSparc,
			r.TranslateS, r.RunVirtualS, r.Ratio)
		sumRX += r.RatioX86
		sumRS += r.RatioSparc
		nat += r.NativeKB
		llva += r.LLVAKB
	}
	n := float64(len(suite))
	fmt.Printf("\nmean expansion: vx86 %.2f, vsparc %.2f (paper: ~2-3 x86, ~2.5-4 SPARC)\n",
		sumRX/n, sumRS/n)
	fmt.Printf("aggregate native-code/LLVA size ratio: %.2fx (paper: 1.3-2x for large programs; the LLVA side embeds initialized data — see the DataKB column)\n",
		nat/llva)
}

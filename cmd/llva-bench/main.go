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
// its offline cache; both virtual seconds at 1 GHz and host wall clock
// are reported, the ratio uses wall clock for both sides). With -tier2
// the run is the one llva-run -tier2 gives a user whose earlier run
// stored a guest profile.
//
// With -json the same rows are emitted machine-readable, extended with
// a telemetry block sourced from the execution manager's metric
// registry over the cold (JIT + cache write-back) and warm (cache hit)
// processes that run: translate nanoseconds, cache hits/misses, and
// instructions retired on the simulated processor.
//
// Usage: llva-bench [-workload NAME] [-O0] [-md] [-json] [-tier2]
//
//	[-translate-workers N] [-compare BASELINE.json]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"llva/internal/codegen"
	"llva/internal/core"
	"llva/internal/image"
	"llva/internal/llee"
	"llva/internal/llee/pipeline"
	"llva/internal/mem"
	"llva/internal/obj"
	"llva/internal/prof"
	"llva/internal/target"
	"llva/internal/telemetry"
	"llva/internal/workloads"
)

// profRate is the sampling profiler's period (one sample per N simulated
// branch events) for every profile-gathering run in the bench. Finer than
// llva-run's default: block-granular heat drives tier-2 superblock layout
// and spill-weight eviction, and at coarser rates small hot loops in the
// mid-size workloads fall below the noise floor.
const profRate = 25

// Row is one Table 2 line.
type Row struct {
	Name      string  `json:"name"`
	PaperName string  `json:"paper_name"`
	LOC       int     `json:"loc"`
	NativeKB  float64 `json:"native_kb"` // vsparc native code size
	// DataKB is the built static data segment, reported separately so
	// data-dominated modules are visible: the .bc size (LLVAKB) embeds
	// initialized global data while NativeKB counts code only, which
	// distorts the size ratio for programs like anagram whose dictionary
	// rivals their code. (The segment can't simply be added to the native
	// side: it materializes zero-initialized arrays the .bc encodes in a
	// few bytes.)
	DataKB      float64 `json:"data_kb"`
	LLVAKB      float64 `json:"llva_kb"`
	NumLLVA     int     `json:"llva_instrs"`
	NumX86      int     `json:"vx86_instrs"`
	RatioX86    float64 `json:"vx86_ratio"`
	NumSparc    int     `json:"vsparc_instrs"`
	RatioSparc  float64 `json:"vsparc_ratio"`
	TranslateS  float64 `json:"translate_s"`   // vx86 whole-program JIT, host seconds
	RunVirtualS float64 `json:"run_virtual_s"` // vx86 cycles at 1 GHz
	RunWallS    float64 `json:"run_wall_s"`    // host wall clock of the simulated run
	Ratio       float64 `json:"translate_run_ratio"`
	// Engine-throughput columns (nondeterministic; excluded from
	// -compare): simulated instructions retired per host second in
	// millions, and host heap allocations charged to the run — the
	// steady-state block engine should allocate close to nothing.
	MIPS        float64 `json:"mips"`
	AllocsPerOp uint64  `json:"allocs_per_op"`

	Telemetry *TelemetryRow `json:"telemetry"`
}

// TelemetryRow carries the registry-sourced metrics of a cold+warm
// manager run pair on vx86, including the speculative-JIT pipeline's
// hit/waste/queue metrics for the cold run.
type TelemetryRow struct {
	TranslateNS   int64  `json:"translate_ns"`
	Translations  uint64 `json:"translations"`
	CacheHits     uint64 `json:"cache_hits"`
	CacheMisses   uint64 `json:"cache_misses"`
	InstrsRetired uint64 `json:"instrs_retired"`
	Cycles        uint64 `json:"cycles"`
	Branches      uint64 `json:"branches"`

	// Block-engine counters: predecoded blocks built, chained (map-free)
	// block transitions, and blocks evicted by SMC invalidation.
	BlockBuilds      uint64 `json:"block_builds"`
	BlockChains      uint64 `json:"block_chains"`
	BlockInvalidates uint64 `json:"block_invalidate"`

	SpecEnqueued   uint64 `json:"spec_enqueued"`
	SpecTranslated uint64 `json:"spec_translated"`
	SpecHits       uint64 `json:"spec_hits"`
	SpecJoins      uint64 `json:"spec_joins"`
	SpecWaste      uint64 `json:"spec_waste"`
	SpecQueuePeak  int64  `json:"spec_queue_peak"`

	// Register-allocator counters: spill stores / reloads emitted and
	// total allocation time across the cold run's translations.
	Spills     uint64 `json:"codegen_spills"`
	Reloads    uint64 `json:"codegen_reloads"`
	RegallocNS int64  `json:"codegen_regalloc_ns"`

	// Tier-2 counters (all zero without -tier2): functions translated at
	// tier 2, superblocks formed, instructions added by tail duplication.
	Tier2Funcs    uint64 `json:"tier2_funcs"`
	Superblocks   uint64 `json:"superblocks"`
	TailDupInstrs uint64 `json:"tail_dup_instrs"`
}

// measureLLEE runs the workload the way llva-run would, through two
// llee.Systems sharing one in-memory storage API and one registry: a
// cold process (speculative JIT, cache write-back at Close) followed by
// a warm one (stamp-validated cache hit). With tier2, the cold process
// also samples the guest and persists its profile, and the warm one,
// built WithTier2, finds the cached code and the profile and translates
// the hot functions at tier 2 before it runs. The row's telemetry block
// is the registry's totals over both processes; its run columns are the
// warm process's run, whose output must match the cold run's byte for
// byte.
func measureLLEE(row *Row, m *core.Module, workers int, tier2 bool) error {
	reg := telemetry.New()
	st := llee.NewMemStorage()
	var res llee.Result
	runOne := func(out io.Writer, opts []llee.SystemOption, sessOpts []llee.SessionOption) error {
		sys := llee.NewSystem(append([]llee.SystemOption{
			llee.WithStorage(st), llee.WithTelemetry(reg),
			llee.WithTranslateWorkers(workers)}, opts...)...)
		sess, err := sys.NewSession(m, target.VX86, out, sessOpts...)
		if err != nil {
			return err
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		res, err = sess.Run(context.Background(), "main")
		runtime.ReadMemStats(&ms1)
		row.AllocsPerOp = ms1.Mallocs - ms0.Mallocs
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
		// Cold: tier-1 JIT under the sampling profiler; the profile is
		// persisted, the translations are written back. Sampling is
		// deterministic, so the profile, and with it the tier-2 code, is
		// reproducible.
		coldOpts = []llee.SessionOption{llee.WithProfiler(prof.NewProfiler(profRate))}
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
	row.RunWallS = res.Wall.Seconds()
	row.RunVirtualS = float64(res.Cycles) / 1e9
	if row.RunWallS > 0 {
		row.Ratio = row.TranslateS / row.RunWallS
		row.MIPS = float64(res.Instrs) / row.RunWallS / 1e6
	}
	snap := reg.Snapshot()
	row.Telemetry = &TelemetryRow{
		TranslateNS:   reg.Histogram(llee.MetricTranslateNS).Sum(),
		Translations:  reg.CounterValue(llee.MetricTranslations),
		CacheHits:     reg.CounterValue(llee.MetricCacheHits),
		CacheMisses:   reg.CounterValue(llee.MetricCacheMisses),
		InstrsRetired: reg.CounterValue("machine.instrs"),
		Cycles:        reg.CounterValue("machine.cycles"),
		Branches:      reg.CounterValue("machine.branches"),

		BlockBuilds:      reg.CounterValue("machine.block_builds"),
		BlockChains:      reg.CounterValue("machine.block_chains"),
		BlockInvalidates: reg.CounterValue("machine.block_invalidate"),

		SpecEnqueued:   reg.CounterValue(pipeline.MetricSpecEnqueued),
		SpecTranslated: reg.CounterValue(pipeline.MetricSpecTranslated),
		SpecHits:       reg.CounterValue(pipeline.MetricSpecHits),
		SpecJoins:      reg.CounterValue(pipeline.MetricSpecJoins),
		SpecWaste:      reg.CounterValue(pipeline.MetricSpecWaste),
		SpecQueuePeak:  snap.Gauges[pipeline.MetricSpecQueuePeak],

		Spills:     reg.CounterValue(codegen.MetricSpills),
		Reloads:    reg.CounterValue(codegen.MetricReloads),
		RegallocNS: reg.Histogram(codegen.MetricRegallocNS).Sum(),

		Tier2Funcs:    reg.CounterValue(codegen.MetricTier2Funcs),
		Superblocks:   reg.CounterValue(codegen.MetricSuperblocks),
		TailDupInstrs: reg.CounterValue(codegen.MetricTailDupInstrs),
	}
	return nil
}

// Measure computes one row; whole-module translations run on the
// pipeline worker pool (workers=1 reproduces the serial timings). The
// size and expansion columns are static properties of the tier-1
// translation. The run columns (cycles, run time, MIPS, allocations)
// are the warm run of measureLLEE: tier-1 code from the offline cache,
// or with tier2 the profile-guided code llee builds from the cold run's
// sampling profile.
func Measure(w *workloads.Workload, optimize bool, workers int, tier2 bool) (*Row, error) {
	var m *core.Module
	var err error
	if optimize {
		m, err = w.CompileOptimized()
	} else {
		m, err = w.Compile()
	}
	if err != nil {
		return nil, err
	}
	row := &Row{Name: w.Name, PaperName: w.PaperName, LOC: w.LOC()}

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
	objS, err := pipeline.TranslateModule(m, target.VSPARC, trS.TranslateFunction, workers, nil)
	if err != nil {
		return nil, err
	}
	row.NativeKB = float64(objS.CodeSize()) / 1024
	row.NumSparc = objS.NumInstrs()
	row.RatioSparc = float64(row.NumSparc) / float64(row.NumLLVA)

	// vx86: expansion (columns 5-7) and JIT translate time (column 10),
	// compiling the entire program like the paper's JIT measurement.
	trX, err := codegen.New(target.VX86, m)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	objX, err := pipeline.TranslateModule(m, target.VX86, trX.TranslateFunction, workers, nil)
	if err != nil {
		return nil, err
	}
	row.TranslateS = time.Since(start).Seconds()
	row.NumX86 = objX.NumInstrs()
	row.RatioX86 = float64(row.NumX86) / float64(row.NumLLVA)

	// Run time (column 11) on the simulated vx86 processor.
	if err := measureLLEE(row, m, workers, tier2); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	return row, nil
}

// columnSet collects the JSON column names a bench row array carries,
// including the telemetry sub-columns as "telemetry.<name>".
func columnSet(data []byte) (map[string]bool, error) {
	var objs []map[string]json.RawMessage
	if err := json.Unmarshal(data, &objs); err != nil {
		return nil, err
	}
	keys := make(map[string]bool)
	for _, o := range objs {
		for k, v := range o {
			keys[k] = true
			if k == "telemetry" {
				var sub map[string]json.RawMessage
				if err := json.Unmarshal(v, &sub); err == nil {
					for sk := range sub {
						keys["telemetry."+sk] = true
					}
				}
			}
		}
	}
	return keys, nil
}

// missingBaselineColumns reports the columns the current rows emit that
// the baseline JSON lacks. A non-empty result means the baseline
// predates the current schema: comparing against it would silently read
// zeros for the new columns, so the caller must fail loudly instead.
func missingBaselineColumns(baseline []byte, rows []*Row) ([]string, error) {
	cur, err := json.Marshal(rows)
	if err != nil {
		return nil, err
	}
	curKeys, err := columnSet(cur)
	if err != nil {
		return nil, err
	}
	oldKeys, err := columnSet(baseline)
	if err != nil {
		return nil, err
	}
	var missing []string
	for k := range curKeys {
		if !oldKeys[k] {
			missing = append(missing, k)
		}
	}
	sort.Strings(missing)
	return missing, nil
}

// compareRows diffs freshly measured rows against a baseline on the
// deterministic Table 2 columns. Identity columns (LOC, #LLVA, LLVA KB)
// changing at all means the workloads or front end drifted and the
// baseline must be re-recorded; native columns (#vx86, #vsparc, native
// size, virtual cycles) increasing means a code-quality regression.
// Decreases are improvements: reported, not fatal. allocs_per_op is
// guarded too, with slack: the count is dominated by the execution
// engine's deterministic allocations but the Go runtime can add a
// handful of its own, so only a growth beyond 10% plus a small
// absolute floor fails the run.
func compareRows(old, cur []*Row) (bad bool) {
	oldBy := make(map[string]*Row, len(old))
	for _, r := range old {
		oldBy[r.Name] = r
	}
	flag := func(name, col string, o, n float64, fatal bool) {
		if n == o {
			return
		}
		mark := "improved"
		if n > o {
			if fatal {
				mark = "REGRESSION"
				bad = true
			} else {
				mark = "DRIFT"
				bad = true
			}
		} else if fatal {
			mark = "improved"
		} else {
			mark = "DRIFT"
			bad = true
		}
		fmt.Printf("%-12s %-14s %12.4f -> %12.4f  %+8.2f%%  %s\n",
			name, col, o, n, 100*(n-o)/o, mark)
	}
	// Allocation counts get tolerance instead of exact matching.
	flagAllocs := func(name string, o, n uint64) {
		limit := o + o/10 + 16
		switch {
		case n > limit:
			bad = true
			fmt.Printf("%-12s %-14s %12d -> %12d  %+8.2f%%  REGRESSION (limit %d)\n",
				name, "allocs_per_op", o, n, 100*(float64(n)-float64(o))/float64(o), limit)
		case n < o:
			fmt.Printf("%-12s %-14s %12d -> %12d  %+8.2f%%  improved\n",
				name, "allocs_per_op", o, n, 100*(float64(n)-float64(o))/float64(o))
		}
	}
	for _, r := range cur {
		o := oldBy[r.Name]
		if o == nil {
			fmt.Printf("%-12s not in baseline\n", r.Name)
			bad = true
			continue
		}
		delete(oldBy, r.Name)
		flag(r.Name, "loc", float64(o.LOC), float64(r.LOC), false)
		flag(r.Name, "llva_kb", o.LLVAKB, r.LLVAKB, false)
		flag(r.Name, "llva_instrs", float64(o.NumLLVA), float64(r.NumLLVA), false)
		flag(r.Name, "data_kb", o.DataKB, r.DataKB, false)
		flag(r.Name, "native_kb", o.NativeKB, r.NativeKB, true)
		flag(r.Name, "vx86_instrs", float64(o.NumX86), float64(r.NumX86), true)
		flag(r.Name, "vsparc_instrs", float64(o.NumSparc), float64(r.NumSparc), true)
		flag(r.Name, "cycles", o.RunVirtualS*1e9, r.RunVirtualS*1e9, true)
		flagAllocs(r.Name, o.AllocsPerOp, r.AllocsPerOp)
	}
	for name := range oldBy {
		fmt.Printf("%-12s in baseline but not measured\n", name)
		bad = true
	}
	if !bad {
		fmt.Printf("compare: %d workloads match the baseline on all deterministic columns\n", len(cur))
	}
	return bad
}

func main() {
	one := flag.String("workload", "", "measure a single workload")
	noOpt := flag.Bool("O0", false, "skip the link-time O2 pipeline")
	md := flag.Bool("md", false, "emit a Markdown table")
	jsonOut := flag.Bool("json", false, "emit machine-readable rows with manager telemetry")
	workers := flag.Int("translate-workers", 0, "translation worker-pool size (0: one per CPU; 1: serial, the paper's setup)")
	compare := flag.String("compare", "", "baseline bench JSON: diff deterministic columns against a fresh measurement and exit non-zero on regression")
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

	var rows []*Row
	for _, w := range suite {
		row, err := Measure(w, !*noOpt, *workers, *tier2)
		if err != nil {
			fmt.Fprintf(os.Stderr, "llva-bench: %v\n", err)
			os.Exit(1)
		}
		rows = append(rows, row)
	}

	if *compare != "" {
		data, err := os.ReadFile(*compare)
		if err != nil {
			fmt.Fprintf(os.Stderr, "llva-bench: %v\n", err)
			os.Exit(2)
		}
		// A baseline that predates the current column schema would compare
		// the new columns against silent zeros; refuse it by name instead.
		missing, err := missingBaselineColumns(data, rows)
		if err != nil {
			fmt.Fprintf(os.Stderr, "llva-bench: %s: %v\n", *compare, err)
			os.Exit(2)
		}
		if len(missing) > 0 {
			fmt.Fprintf(os.Stderr,
				"llva-bench: baseline %s lacks %d column(s) the current run emits:\n",
				*compare, len(missing))
			for _, c := range missing {
				fmt.Fprintf(os.Stderr, "  %s\n", c)
			}
			fmt.Fprintln(os.Stderr, "re-record the baseline with the current llva-bench before comparing")
			os.Exit(1)
		}
		var old []*Row
		if err := json.Unmarshal(data, &old); err != nil {
			fmt.Fprintf(os.Stderr, "llva-bench: %s: %v\n", *compare, err)
			os.Exit(2)
		}
		if compareRows(old, rows) {
			os.Exit(1)
		}
		return
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rows); err != nil {
			fmt.Fprintf(os.Stderr, "llva-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *md {
		fmt.Println("| Program | LOC | Native KB | Data KB | LLVA KB | #LLVA | #vx86 | Ratio | #vsparc | Ratio | Translate (s) | Run (s, virtual) | Tr/Run |")
		fmt.Println("|---|---|---|---|---|---|---|---|---|---|---|---|---|")
		for _, r := range rows {
			fmt.Printf("| %s | %d | %.1f | %.1f | %.1f | %d | %d | %.2f | %d | %.2f | %.4f | %.4f | %.3f |\n",
				r.PaperName, r.LOC, r.NativeKB, r.DataKB, r.LLVAKB, r.NumLLVA,
				r.NumX86, r.RatioX86, r.NumSparc, r.RatioSparc,
				r.TranslateS, r.RunVirtualS, r.Ratio)
		}
		return
	}

	fmt.Printf("%-18s %5s %9s %7s %8s %7s %7s %6s %8s %6s %10s %10s %7s\n",
		"Program", "LOC", "NativeKB", "DataKB", "LLVAKB", "#LLVA", "#vx86", "ratio",
		"#vsparc", "ratio", "Transl(s)", "Run(s)", "Tr/Run")
	var sumRX, sumRS float64
	for _, r := range rows {
		fmt.Printf("%-18s %5d %9.1f %7.1f %8.1f %7d %7d %6.2f %8d %6.2f %10.4f %10.4f %7.3f\n",
			r.PaperName, r.LOC, r.NativeKB, r.DataKB, r.LLVAKB, r.NumLLVA,
			r.NumX86, r.RatioX86, r.NumSparc, r.RatioSparc,
			r.TranslateS, r.RunVirtualS, r.Ratio)
		sumRX += r.RatioX86
		sumRS += r.RatioSparc
	}
	n := float64(len(rows))
	fmt.Printf("\nmean expansion: vx86 %.2f, vsparc %.2f (paper: ~2-3 x86, ~2.5-4 SPARC)\n",
		sumRX/n, sumRS/n)
	var nat, llva float64
	for _, r := range rows {
		nat += r.NativeKB
		llva += r.LLVAKB
	}
	fmt.Printf("aggregate native-code/LLVA size ratio: %.2fx (paper: 1.3-2x for large programs; the LLVA side embeds initialized data — see the DataKB column)\n",
		nat/llva)
}

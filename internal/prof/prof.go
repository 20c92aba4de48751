// Package prof is the guest-level observability layer: where
// internal/telemetry observes the *host* (what the execution engine
// did), prof observes the *guest* — where the virtual program spends
// its virtual cycles and what the machine looked like when it died.
//
// Two pillars:
//
//   - Profiler: a guest profiler with two inputs. The machine samples at
//     basic-block boundaries every Rate retired virtual instructions —
//     a deterministic trigger derived from the instruction stream, not
//     the wall clock — capturing the virtual call stack; aggregation
//     yields per-function inclusive/exclusive hotness, exported as
//     folded-stack text (flamegraph-ready) and a hot-function report,
//     for people to read. And while it is attached the machine counts
//     every block entry exactly, handing the counts over at the end of
//     each run. Only those go into the versioned artifact the tier-2
//     translator consumes: a function with entries is translated at
//     tier 2, and the entries weigh its blocks. At the same flushes the
//     machine takes an exact census of what it retired: instructions
//     and cycles by op, and the taken branches (AddCensus).
//
//   - CrashReport: the trap-time flight recorder's rendering — the
//     unified register file, the virtual backtrace, a disassembly
//     window around the faulting PC, and the tail of the telemetry
//     event ring, as a readable post-mortem.
//
// The package is a leaf: the machine and LLEE depend on it, never the
// reverse, so it can also serve tools that have no machine at all.
package prof

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// DefaultRate is the default sampling interval in retired virtual
// instructions. At the suite's simulated clock (~1 GHz) this is one
// sample per ~4µs of virtual time — dense enough to attribute hotness
// in short benchmark runs, sparse enough that the per-block counter
// check stays invisible in the wall clock.
const DefaultRate = 4096

// FuncStat is one function's aggregated hotness.
type FuncStat struct {
	Name string
	// Incl counts samples with the function anywhere on the virtual
	// stack (de-duplicated, so recursion does not double-count).
	Incl uint64
	// Excl counts samples whose leaf frame was in the function.
	Excl uint64
}

// Profiler aggregates virtual-PC samples. It is safe for concurrent
// use: many sessions (each on its own machine goroutine) may share one
// Profiler, and exporters may read while runs are still sampling.
type Profiler struct {
	rate uint64

	mu sync.Mutex
	// folded maps "root;caller;leaf" stacks to sample counts; key is
	// the scratch a sample's stack is joined in. Counts are behind a
	// pointer so that a stack seen before is a lookup by string(key),
	// which does not allocate, and not an assignment, which would.
	folded map[string]*uint64
	key    []byte
	// seen is AddSample's scratch for counting a recursive function
	// once per sample.
	seen  map[string]bool
	funcs map[string]*FuncStat
	// blocks counts the entries of each executed block (AddBlockHits).
	blocks map[blockKey]uint64
	// census counts retired instructions and cycles by op (AddCensus).
	census map[string]*CensusRow
	total  uint64
}

// TakenBranch is the census row of taken branches: each costs one
// redirect cycle on top of its instruction's own.
const TakenBranch = "taken-branch"

// CensusRow is what the guest retired of one op, named as
// target.MInstr.OpName names it (alu.add, load, setcc, jcc), or the
// TakenBranch row: its instructions and their cycles.
type CensusRow struct {
	Op             string
	Instrs, Cycles uint64
}

// blockKey names one executed LLVA block: its function, and its index
// there.
type blockKey struct {
	fn    string
	block int
}

// NewProfiler creates a profiler sampling every rate retired virtual
// instructions (rate <= 0 selects DefaultRate).
func NewProfiler(rate int) *Profiler {
	if rate <= 0 {
		rate = DefaultRate
	}
	return &Profiler{
		rate:   uint64(rate),
		folded: make(map[string]*uint64),
		seen:   make(map[string]bool),
		funcs:  make(map[string]*FuncStat),
		blocks: make(map[blockKey]uint64),
		census: make(map[string]*CensusRow),
	}
}

// Rate returns the sampling interval in retired virtual instructions.
func (p *Profiler) Rate() uint64 { return p.rate }

// AddSample records one sample: stack is the virtual call stack
// root-first with the interrupted function last. Empty stacks (a sample
// before any function was attributable) are dropped.
func (p *Profiler) AddSample(stack []string) {
	if len(stack) == 0 {
		return
	}
	leaf := stack[len(stack)-1]
	p.mu.Lock()
	defer p.mu.Unlock()
	p.total++
	p.key = p.key[:0]
	for i, fn := range stack {
		if i > 0 {
			p.key = append(p.key, ';')
		}
		p.key = append(p.key, fn...)
	}
	n := p.folded[string(p.key)]
	if n == nil {
		n = new(uint64)
		p.folded[string(p.key)] = n
	}
	*n++
	clear(p.seen)
	for _, fn := range stack {
		if p.seen[fn] {
			continue
		}
		p.seen[fn] = true
		p.stat(fn).Incl++
	}
	p.stat(leaf).Excl++
}

// AddBlockHits records that LLVA block number block of fn was entered n
// more times.
func (p *Profiler) AddBlockHits(fn string, block int, n uint64) {
	p.mu.Lock()
	p.blocks[blockKey{fn, block}] += n
	p.mu.Unlock()
}

// AddCensus records that the guest retired instrs more instructions of
// op, costing cycles.
func (p *Profiler) AddCensus(op string, instrs, cycles uint64) {
	p.mu.Lock()
	row := p.census[op]
	if row == nil {
		row = &CensusRow{Op: op}
		p.census[op] = row
	}
	row.Instrs += instrs
	row.Cycles += cycles
	p.mu.Unlock()
}

// Census returns the census by cycles (descending), ties broken by op.
func (p *Profiler) Census() []CensusRow {
	p.mu.Lock()
	out := make([]CensusRow, 0, len(p.census))
	for _, r := range p.census {
		out = append(out, *r)
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].Op < out[j].Op
	})
	return out
}

// WriteCensus writes the census as a table: each op's retired
// instructions and cycles, with its share of all cycles.
func (p *Profiler) WriteCensus(w io.Writer) error {
	rows := p.Census()
	var instrs, cycles uint64
	for _, r := range rows {
		instrs += r.Instrs
		cycles += r.Cycles
	}
	if _, err := fmt.Fprintf(w, "%-16s %14s %14s %7s\n", "OP", "INSTRS", "CYCLES", "CYC%"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%-16s %14d %14d %6.2f%%\n",
			r.Op, r.Instrs, r.Cycles, 100*float64(r.Cycles)/float64(max(cycles, 1))); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "census: %d instrs, %d cycles\n", instrs, cycles)
	return err
}

// stat returns the record for fn; callers hold p.mu.
func (p *Profiler) stat(fn string) *FuncStat {
	s := p.funcs[fn]
	if s == nil {
		s = &FuncStat{Name: fn}
		p.funcs[fn] = s
	}
	return s
}

// Total returns the number of samples recorded.
func (p *Profiler) Total() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total
}

// Funcs returns per-function hotness sorted by exclusive count
// (descending), ties broken by name for determinism.
func (p *Profiler) Funcs() []FuncStat {
	p.mu.Lock()
	out := make([]FuncStat, 0, len(p.funcs))
	for _, s := range p.funcs {
		out = append(out, *s)
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Excl != out[j].Excl {
			return out[i].Excl > out[j].Excl
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// WriteFolded writes the samples in folded-stack format — one
// "root;caller;leaf count" line per distinct stack, sorted — the input
// format of flamegraph.pl, inferno, and speedscope.
func (p *Profiler) WriteFolded(w io.Writer) error {
	p.mu.Lock()
	keys := make([]string, 0, len(p.folded))
	for k := range p.folded {
		keys = append(keys, k)
	}
	counts := make(map[string]uint64, len(p.folded))
	for k, v := range p.folded {
		counts[k] = *v
	}
	p.mu.Unlock()
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "%s %d\n", k, counts[k]); err != nil {
			return err
		}
	}
	return nil
}

// WriteReport writes a human-readable hot-function table: exclusive and
// inclusive sample counts with percentages of the total.
func (p *Profiler) WriteReport(w io.Writer) error {
	total := p.Total()
	if total == 0 {
		_, err := fmt.Fprintln(w, "prof: no samples")
		return err
	}
	if _, err := fmt.Fprintf(w, "%-28s %10s %7s %10s %7s\n",
		"FUNCTION", "EXCL", "EXCL%", "INCL", "INCL%"); err != nil {
		return err
	}
	for _, s := range p.Funcs() {
		if _, err := fmt.Fprintf(w, "%-28s %10d %6.1f%% %10d %6.1f%%\n",
			s.Name, s.Excl, 100*float64(s.Excl)/float64(total),
			s.Incl, 100*float64(s.Incl)/float64(total)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "total: %d samples, 1 per %d retired virtual instructions\n",
		total, p.rate)
	return err
}

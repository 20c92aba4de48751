package machine

import (
	"strings"
	"testing"

	"llva/internal/asm"
	"llva/internal/codegen"
	"llva/internal/core"
	"llva/internal/target"
)

// nativeFor translates src for d and returns its function named fn.
func nativeFor(t *testing.T, src, fn string, d *target.Desc) *codegen.NativeFunc {
	t.Helper()
	m, err := asm.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(m); err != nil {
		t.Fatal(err)
	}
	tr, err := codegen.New(d, m)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := tr.TranslateModule()
	if err != nil {
		t.Fatal(err)
	}
	for _, nf := range obj.Funcs {
		if nf.Name == fn {
			return nf
		}
	}
	t.Fatalf("no native function %q", fn)
	return nil
}

// TestBlockChaining: steady-state loop execution must run on chained
// block pointers, not per-PC lookups: far fewer blocks built than
// instructions retired, and most block transitions chained.
func TestBlockChaining(t *testing.T) {
	src := `
long %f(long %n) {
entry:
    br label %loop
loop:
    %i = phi long [ 0, %entry ], [ %i2, %loop ]
    %i2 = add long %i, 1
    %done = setge long %i2, %n
    br bool %done, label %exit, label %loop
exit:
    ret long %i2
}
`
	for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
		mc, _ := loadProgram(t, src, d)
		v, err := mc.Run("f", 10_000)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if v != 10_000 {
			t.Errorf("%s: f(10000) = %d, want 10000", d.Name, v)
		}
		st := mc.Stats
		if st.BlockBuilds == 0 || st.BlockBuilds > 64 {
			t.Errorf("%s: %d block builds for a 3-block function", d.Name, st.BlockBuilds)
		}
		if st.BlockChains < st.Instrs/100 {
			t.Errorf("%s: only %d chained transitions for %d instructions",
				d.Name, st.BlockChains, st.Instrs)
		}
		// The predecode fills must stay the I-cache analog: decoded once,
		// executed thousands of times.
		if st.ICacheFills >= st.Instrs/10 {
			t.Errorf("%s: %d predecode fills for %d instructions",
				d.Name, st.ICacheFills, st.Instrs)
		}
	}
}

// TestSMCInvalidationEvictsBlocks executes a function (building and
// chaining its blocks), patches it — InvalidateFunction then a fresh
// InstallCode under the same name — and re-executes: the new body must
// run, and the old body's predecoded blocks must have been evicted.
func TestSMCInvalidationEvictsBlocks(t *testing.T) {
	const v1 = `
long %f(long %x) {
entry:
    br label %loop
loop:
    %i = phi long [ 0, %entry ], [ %i2, %loop ]
    %i2 = add long %i, 1
    %done = setge long %i2, 8
    br bool %done, label %exit, label %loop
exit:
    %r = add long %x, 1
    ret long %r
}
`
	v2 := strings.Replace(v1, "add long %x, 1", "add long %x, 2", 1)
	for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
		mc, _ := loadProgram(t, v1, d)
		got, err := mc.Run("f", 40)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if got != 41 {
			t.Fatalf("%s: v1 f(40) = %d, want 41", d.Name, got)
		}
		if mc.Stats.BlockChains == 0 {
			t.Fatalf("%s: no chained blocks before invalidation", d.Name)
		}

		evicted := mc.Stats.BlockInvalidations
		if err := mc.InvalidateFunction("f"); err != nil {
			t.Fatalf("%s: invalidate: %v", d.Name, err)
		}
		if mc.Stats.BlockInvalidations <= evicted {
			t.Errorf("%s: InvalidateFunction evicted no blocks", d.Name)
		}
		if _, err := mc.InstallCode(nativeFor(t, v2, "f", d)); err != nil {
			t.Fatalf("%s: reinstall: %v", d.Name, err)
		}
		got, err = mc.Run("f", 40)
		if err != nil {
			t.Fatalf("%s: rerun: %v", d.Name, err)
		}
		if got != 42 {
			t.Errorf("%s: patched f(40) = %d, want 42 (stale block executed?)",
				d.Name, got)
		}
	}
}

// walkTo decodes straight-line code from entry until pc, returning the
// instruction count and cycle sum through the instruction AT pc
// (inclusive). It is the trap-accounting oracle for branch-free code.
func walkTo(t *testing.T, mc *Machine, entry, pc uint64) (instrs uint64, cycles uint64, at target.MInstr) {
	t.Helper()
	a := entry
	for {
		raw, err := mc.mem.Bytes(a, 16)
		if err != nil {
			t.Fatalf("walk: %v", err)
		}
		in, n, err := mc.desc.DecodeFrom(raw, 0)
		if err != nil {
			t.Fatalf("walk decode at 0x%x: %v", a, err)
		}
		instrs++
		cycles += mc.desc.Cycles(&in)
		if a == pc {
			return instrs, cycles, in
		}
		if a > pc {
			t.Fatalf("walk overshot trap pc 0x%x (at 0x%x)", pc, a)
		}
		a += uint64(n)
	}
}

// TestPreciseMidBlockTraps: a fault in the middle of a predecoded block
// must report the exact faulting PC, and the batched Instrs/Cycles
// accounting must equal the per-instruction sum up to and including the
// faulting instruction.
func TestPreciseMidBlockTraps(t *testing.T) {
	cases := []struct {
		name string
		src  string
		trap uint64
		arg2 uint64
	}{
		{
			name: "memory-fault",
			src: `
long %f(long* %p, long %x) {
entry:
    %a = add long %x, 1
    %b = add long %a, 2
    %v = load long* %p
    %c = add long %b, %v
    ret long %c
}
`,
			trap: TrapMemoryFault,
			arg2: 7,
		},
		{
			name: "div-by-zero",
			src: `
long %f(long %a, long %b) {
entry:
    %s = add long %a, 3
    %t = mul long %s, 2
    %q = div long %t, %b
    %u = add long %q, 1
    ret long %u
}
`,
			trap: TrapDivByZero,
			arg2: 0,
		},
	}
	for _, tc := range cases {
		for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
			mc, _ := loadProgram(t, tc.src, d)
			_, err := mc.Run("f", 0, tc.arg2)
			te, ok := err.(*TrapError)
			if !ok || te.Num != tc.trap {
				t.Fatalf("%s/%s: err = %v, want trap %d", tc.name, d.Name, err, tc.trap)
			}
			entry, _ := mc.FuncAddr("f")
			if te.PC == entry {
				t.Errorf("%s/%s: trap PC is the block entry, not the faulting instruction",
					tc.name, d.Name)
			}
			// The function is branch-free up to the fault, so a decode
			// walk from its entry is an exact accounting oracle.
			wantInstrs, wantCycles, in := walkTo(t, mc, entry, te.PC)
			switch {
			case tc.trap == TrapMemoryFault && !(in.Op == target.MLoad || (in.Op == target.MALU && in.HasMem)):
				t.Errorf("%s/%s: instruction at trap PC is %s, not a load",
					tc.name, d.Name, in.Op)
			case tc.trap == TrapDivByZero && !(in.Op == target.MALU && in.Alu == target.ADiv):
				t.Errorf("%s/%s: instruction at trap PC is %s, not a div",
					tc.name, d.Name, in.Op)
			}
			if mc.Stats.Instrs != wantInstrs {
				t.Errorf("%s/%s: Stats.Instrs = %d, want %d (through the faulting instruction)",
					tc.name, d.Name, mc.Stats.Instrs, wantInstrs)
			}
			if mc.Stats.Cycles != wantCycles {
				t.Errorf("%s/%s: Stats.Cycles = %d, want %d",
					tc.name, d.Name, mc.Stats.Cycles, wantCycles)
			}
			if mc.Stats.Traps != 1 {
				t.Errorf("%s/%s: Stats.Traps = %d, want 1", tc.name, d.Name, mc.Stats.Traps)
			}
		}
	}

	// The same exactness where the engine keeps the least state: a
	// hand-assembled block that ends in a compare and branch (one fused op
	// on vx86), with a load, a divide and a store before it, each of which
	// traps in turn. The PC and the counters exist only as the trapping
	// op's position in its block.
	const rVal, rPtr, rDiv, rOut = 6, 7, 8, 9
	body := func(noTrap bool) []target.MInstr {
		movi, load, div, store := mi(target.MMovRI), mi(target.MLoad), mi(target.MALU), mi(target.MStore)
		movi.Rd, movi.Imm = rVal, 40
		load.Rd, load.Base, load.Size, load.NoTrap = rOut, rPtr, 8, noTrap
		div.Alu, div.Rd, div.Rs1, div.Rs2, div.Size, div.Signed, div.NoTrap = target.ADiv, rOut, rVal, rDiv, 8, true, noTrap
		store.Rs1, store.Base, store.Size, store.NoTrap = rVal, rPtr, 8, noTrap
		cmp, jcc := mi(target.MCmp), mi(target.MJcc)
		cmp.Rs1, cmp.Rs2, cmp.Signed = rVal, rDiv, true
		jcc.Cnd, jcc.Rs1 = target.CondGT, rVal
		return []target.MInstr{movi, load, div, store, cmp, jcc, mi(target.MRet)}
	}
	for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
		prog := body(false)
		prog[5].Target = int32(len(encodeOne(d, &prog[5])) / d.RelBranchScale) // to the ret, like the fall-through
		for _, tc := range []struct {
			name      string
			ptr, div  uint64
			at        int // index of the instruction that traps
			trap      uint64
			wantInstr target.MOp
		}{
			{"load", 0, 5, 1, TrapMemoryFault, target.MLoad},
			{"div", oracleWin, 0, 2, TrapDivByZero, target.MALU},
		} {
			mc := oracleMachine(t, d, true)
			entry, err := mc.emit(prog...)
			if err != nil {
				t.Fatal(err)
			}
			mc.bind("f", entry)
			mc.regs[rPtr], mc.regs[rDiv] = tc.ptr, tc.div
			_, err = mc.Run("f")
			te, ok := err.(*TrapError)
			if !ok || te.Num != tc.trap {
				t.Fatalf("fused/%s/%s: err = %v, want trap %d", tc.name, d.Name, err, tc.trap)
			}
			if ops := mc.blocks[entry].ops; d.HasFlags && (len(ops) != 5 || ops[4].op != uCmpJccS) {
				t.Errorf("fused/%s/%s: the block is %d ops ending in op %d, want 5 ending in the fused compare-and-branch", tc.name, d.Name, len(ops), ops[len(ops)-1].op)
			}
			wantPC := entry
			for i := 0; i < tc.at; i++ {
				wantPC += uint64(len(encodeOne(d, &prog[i])))
			}
			wantInstrs, wantCycles, in := walkTo(t, mc, entry, wantPC)
			if te.PC != wantPC || in.Op != tc.wantInstr || te.Mnemonic != in.String() {
				t.Errorf("fused/%s/%s: trap at 0x%x [%s], want 0x%x [%s]", tc.name, d.Name, te.PC, te.Mnemonic, wantPC, in.String())
			}
			if mc.Stats.Instrs != wantInstrs || mc.Stats.Cycles != wantCycles {
				t.Errorf("fused/%s/%s: retired %d instructions in %d cycles, want %d in %d", tc.name, d.Name, mc.Stats.Instrs, mc.Stats.Cycles, wantInstrs, wantCycles)
			}
		}

		// A store cannot fault where the load before it did not, so the
		// store's turn takes a block of its own shape: the pointer is
		// replaced between the two.
		{
			mc := oracleMachine(t, d, true)
			repoint := mi(target.MMovRI)
			repoint.Rd = rPtr
			p := append(append([]target.MInstr{}, prog[:3]...), repoint)
			p = append(p, prog[3:]...)
			entry, err := mc.emit(p...)
			if err != nil {
				t.Fatal(err)
			}
			mc.bind("f", entry)
			mc.regs[rPtr], mc.regs[rDiv] = oracleWin, 5
			_, err = mc.Run("f")
			wantPC := entry
			for i := 0; i < 4; i++ {
				wantPC += uint64(len(encodeOne(d, &p[i])))
			}
			wantInstrs, wantCycles, in := walkTo(t, mc, entry, wantPC)
			te, ok := err.(*TrapError)
			if !ok || te.Num != TrapMemoryFault || te.PC != wantPC || in.Op != target.MStore || te.Mnemonic != in.String() {
				t.Errorf("fused/store/%s: err = %v, want a memory fault at 0x%x [%s]", d.Name, err, wantPC, in.String())
			}
			if mc.Stats.Instrs != wantInstrs || mc.Stats.Cycles != wantCycles {
				t.Errorf("fused/store/%s: retired %d instructions in %d cycles, want %d in %d", d.Name, mc.Stats.Instrs, mc.Stats.Cycles, wantInstrs, wantCycles)
			}
		}

		// The same accesses marked NoTrap must not trap: the load and the
		// divide read as zero, the store writes nothing, and the run
		// retires the whole block, the taken branch and the ret.
		{
			mc := oracleMachine(t, d, true)
			quiet := body(true)
			quiet[5].Target = prog[5].Target
			entry, err := mc.emit(quiet...)
			if err != nil {
				t.Fatal(err)
			}
			mc.bind("f", entry)
			mc.regs[rPtr], mc.regs[rDiv], mc.regs[rOut] = 0, 0, 77
			if _, err := mc.Run("f"); err != nil {
				t.Fatalf("notrap/%s: %v", d.Name, err)
			}
			retPC := mc.codeEnd - uint64(len(encodeOne(d, &quiet[6])))
			wantInstrs, wantCycles, _ := walkTo(t, mc, entry, retPC)
			wantCycles++ // 40 > 0: the branch is taken
			if mc.regs[rOut] != 0 || mc.Stats.Instrs != wantInstrs || mc.Stats.Cycles != wantCycles || mc.Stats.Traps != 0 {
				t.Errorf("notrap/%s: r%d = %d after %d instructions, %d cycles, %d traps; want 0 after %d, %d, 0",
					d.Name, rOut, mc.regs[rOut], mc.Stats.Instrs, mc.Stats.Cycles, mc.Stats.Traps, wantInstrs, wantCycles)
			}
		}

		// clock() in the middle of a function reads the virtual clock as of
		// its own call instruction, although the block's cycles have not
		// been added to the counter yet.
		{
			mc := oracleMachine(t, d, true)
			clock := mi(target.MCallExt)
			clock.Sym = "clock"
			p := append(body(true)[:4], clock, mi(target.MRet))
			entry, err := mc.emit(p...)
			if err != nil {
				t.Fatal(err)
			}
			mc.bind("f", entry)
			mc.regs[rPtr], mc.regs[rDiv] = oracleWin, 5
			got, err := mc.Run("f")
			if err != nil {
				t.Fatalf("clock/%s: %v", d.Name, err)
			}
			retLen := uint64(len(encodeOne(d, &p[5])))
			clockPC := mc.codeEnd - retLen - uint64(len(encodeOne(d, &clock)))
			if _, want, _ := walkTo(t, mc, entry, clockPC); got != want {
				t.Errorf("clock/%s: clock() = %d, want %d: the cycles through the call", d.Name, got, want)
			}
		}
	}
}

// TestDecodeBoundaryLazyError: a block cut short by the end of the code
// segment reports the fetch fault only when execution actually reaches
// the bad PC, like the old per-instruction fetch did.
func TestDecodeBoundaryLazyError(t *testing.T) {
	src := `
long %f(long %x) {
entry:
    %r = add long %x, 1
    ret long %r
}
`
	mc, _ := loadProgram(t, src, target.VX86)
	if _, err := mc.Run("f", 1); err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	// Jumping straight past the code end must fault with the precise PC.
	_, err := mc.blockFor(mc.codeEnd + 32)
	te, ok := err.(*TrapError)
	if !ok || te.Num != TrapMemoryFault || te.PC != mc.codeEnd+32 {
		t.Errorf("fetch outside code segment: err = %v", err)
	}
}

// TestInvalidateRedirectsEveryCaller: after InvalidateFunction no road
// leads into the old body. %main reaches %f three ways, all bound to the
// body's address at load time: a direct call (LoadObject installed %f
// first, so the call was patched straight to it), a pointer stored in the
// data segment, and the chained block behind the call. Once %f is
// invalidated and a new body installed under its name, all three run the
// new one.
func TestInvalidateRedirectsEveryCaller(t *testing.T) {
	const v1 = `
%table = global [1 x long (long)*] [ long (long)* %f ]
long %f(long %x) {
entry:
    %r = add long %x, 1
    ret long %r
}
long %main(long %x) {
entry:
    %a = call long %f(long %x)
    %slot = getelementptr [1 x long (long)*]* %table, long 0, long 0
    %fp = load long (long)** %slot
    %b = call long %fp(long %x)
    %r = add long %a, %b
    ret long %r
}
`
	v2 := strings.Replace(v1, "add long %x, 1", "add long %x, 1000", 1)
	for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
		mc, _ := loadProgram(t, v1, d)
		for run := 0; run < 2; run++ { // the second run follows chained blocks
			if got, err := mc.Run("main", 40); err != nil || got != 82 {
				t.Fatalf("%s: v1 main(40) = %d, %v, want 82", d.Name, got, err)
			}
		}
		if n := mc.Stats.ExternCalls; n != 0 {
			t.Fatalf("%s: %d extern calls before the invalidation: %%f was not called directly", d.Name, n)
		}
		if err := mc.InvalidateFunction("f"); err != nil {
			t.Fatalf("%s: invalidate: %v", d.Name, err)
		}
		if _, err := mc.InstallCode(nativeFor(t, v2, "f", d)); err != nil {
			t.Fatalf("%s: reinstall: %v", d.Name, err)
		}
		if got, err := mc.Run("main", 40); err != nil || got != 2080 {
			t.Errorf("%s: patched main(40) = %d, %v, want 2080 (a caller still reached the old body)", d.Name, got, err)
		}
	}
}

// TestInvalidationPatchFitsPrologue: the jump InvalidateFunction writes
// over a body's first bytes must stay inside that body's prologue, on
// both targets, for the smallest body the translator can emit. Function
// bodies are 16-byte aligned, so 16 bytes is the hard bound: a longer
// patch could reach the next function. Within it, the patch may only
// cover straight-line frame set-up: an active invocation never executes
// its prologue again, so it never sees the overwritten bytes, and no
// branch lands there.
func TestInvalidationPatchFitsPrologue(t *testing.T) {
	const smallest = `
void %f() {
entry:
    ret void
}
`
	for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
		patch, _ := d.Encode(&target.MInstr{Op: target.MJmp}, nil)
		if len(patch) > 16 {
			t.Fatalf("%s: the patch is %d bytes: past the 16-byte function alignment", d.Name, len(patch))
		}
		body := nativeFor(t, smallest, "f", d).Code
		for off := 0; off < len(patch); {
			in, n, err := d.DecodeFrom(body, off)
			if err != nil {
				t.Fatalf("%s: the smallest body (%d bytes) ends inside the %d-byte patch: %v", d.Name, len(body), len(patch), err)
			}
			if in.Op.Is(target.EndsBlock) {
				t.Fatalf("%s: the %d-byte patch covers a %s at offset %d of the smallest body", d.Name, len(patch), in.Op, off)
			}
			off += n
		}
	}
}

package machine

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"llva/internal/core"
	"llva/internal/mem"
	"llva/internal/rt"
	"llva/internal/target"
)

// TestUopSize: an op is half a cache line, so two never straddle three.
func TestUopSize(t *testing.T) {
	if n := unsafe.Sizeof(uop{}); n > 32 {
		t.Fatalf("uop is %d bytes, want at most 32", n)
	}
}

// The oracle's address space: 256 KiB, so that comparing all of it once
// per instruction form is cheap. Code grows from the bottom, the data
// window and the stack page lie above the code segment's limit (half the
// space).
const (
	oracleMem   = 256 << 10
	oracleWin   = 160 << 10 // the window memory operands are steered into
	oracleStack = 240 << 10 // SP is steered into [oracleStack, +oraclePage)
	oraclePage  = mem.PageSize
	oracleSets  = 64 // operand sets per instruction form
)

// form is one shape of instruction to test: a program of one instruction,
// or of a few when what is tested is how neighbours combine.
type form struct {
	name string
	prog []target.MInstr
}

// mi returns an instruction of op with every register operand absent.
func mi(op target.MOp) target.MInstr {
	return target.MInstr{Op: op, Rd: target.NoReg, Rs1: target.NoReg, Rs2: target.NoReg,
		Base: target.NoReg, Index: target.NoReg}
}

// oracleForms enumerates every encodable instruction form for d. The
// registers, immediates, displacements and branch targets of each are
// drawn from rng.
func oracleForms(d *target.Desc, rng *rand.Rand) []form {
	var forms []form
	add := func(name string, prog ...target.MInstr) {
		forms = append(forms, form{name, prog})
	}
	ireg := func() target.Reg { return target.Reg(rng.Intn(32)) }
	freg := func() target.Reg { return target.FPBase + target.Reg(rng.Intn(32)) }
	// A register of either bank; now and then absent, or beyond both.
	reg := func() target.Reg {
		switch k := rng.Intn(16); {
		case k == 0:
			return target.NoReg
		case k == 1:
			return target.Reg(rng.Intn(3)) // r0 matters on vsparc
		case k < 5:
			return freg()
		}
		return ireg()
	}
	imms := []int64{0, 1, -1, 2, 7, 8, 31, 32, 63, 64, 255, 256, -128, 1 << 31, -(1 << 31),
		math.MaxInt64, math.MinInt64, 0x1234_5678_9abc_def0, oracleWin + 24, 0xfff, 0x1000}
	imm := func() int64 { return imms[rng.Intn(len(imms))] }
	// An ALU, compare or setcc immediate is drawn from the target's
	// range, its edges included.
	var aluImms []int64
	for _, v := range append(imms, d.MaxImm, -d.MaxImm-1, d.MaxImm-1) {
		if d.ImmFits(v) {
			aluImms = append(aluImms, v)
		}
	}
	aluImm := func() int64 { return aluImms[rng.Intn(len(aluImms))] }
	bools := []bool{false, true}
	sizes := []uint8{1, 2, 4, 8, 0, 3} // 0 and 3 are encodable, and must fault or pass through as ever
	withMem := func(in *target.MInstr, indexed bool) {
		in.Base, in.Disp = ireg(), int32(rng.Intn(129)-64)
		if indexed {
			in.Index, in.Scale = ireg(), []uint8{1, 2, 4, 8, 0, 3}[rng.Intn(6)]
		}
	}
	flagsOf := func(in *target.MInstr) string {
		s := fmt.Sprintf(".%d", in.Size)
		for _, f := range []struct {
			on bool
			s  string
		}{{in.Signed, "s"}, {in.FP, "f"}, {in.NoTrap, "nt"}, {in.HasImm, "ri"}, {in.HasMem, "rm"},
			{in.Index != target.NoReg, "x"}, {in.SetsFlags, "sf"}} {
			if f.on {
				s += "." + f.s
			}
		}
		return s
	}

	add("nop", mi(target.MNop))
	for i := 0; i < 8; i++ {
		in := mi(target.MMovRR)
		in.Rd, in.Rs1 = reg(), reg()
		add("mov", in)
	}
	for scale := uint8(0); scale < 6; scale++ { // vsparc shifts by 16*scale; 4 and 5 shift everything out
		for _, or := range bools {
			in := mi(target.MMovRI)
			in.Rd, in.Imm, in.Scale, in.HasImm = reg(), imm(), scale, or
			add(fmt.Sprintf("movi.%d%s", scale, flagsOf(&in)), in)
		}
	}
	for _, op := range []target.MOp{target.MLoad, target.MStore} {
		for _, size := range sizes {
			for _, signed := range bools {
				for _, fp := range bools {
					for _, nt := range bools {
						for _, indexed := range bools {
							in := mi(op)
							in.Size, in.Signed, in.FP, in.NoTrap = size, signed, fp, nt
							if op == target.MLoad {
								in.Rd = reg()
							} else {
								in.Rs1 = reg()
							}
							withMem(&in, indexed)
							add(op.String()+flagsOf(&in), in)
						}
					}
				}
			}
		}
	}
	for _, indexed := range bools {
		in := mi(target.MLea)
		in.Rd = reg()
		withMem(&in, indexed)
		add("lea"+flagsOf(&in), in)
	}
	// Absolute memory operands, as a global's address patched into the
	// displacement leaves them (vx86): no base, at every width.
	for _, op := range []target.MOp{target.MLoad, target.MStore, target.MLea} {
		for _, size := range []uint8{1, 2, 4, 8} {
			for _, indexed := range bools {
				in := mi(op)
				switch op {
				case target.MLoad:
					in.Rd, in.Size, in.Signed = reg(), size, size < 8
				case target.MStore:
					in.Rs1, in.Size = reg(), size
				default:
					in.Rd = reg()
				}
				in.Disp = int32(oracleWin + 128 + rng.Intn(oraclePage-256))
				if indexed {
					in.Index, in.Scale = ireg(), size
				}
				add(op.String()+".abs"+flagsOf(&in), in)
			}
		}
	}
	// Each ALU form the target may set the flags on, again with SetsFlags:
	// added last, so that the forms above draw the operands they always
	// did.
	var flagged []form
	for alu := target.AAdd; alu <= target.AShr; alu++ {
		for _, size := range sizes {
			for _, signed := range bools {
				for _, fp := range bools {
					for _, nt := range bools {
						for src := 0; src < 4; src++ { // register, immediate, memory, indexed memory
							in := mi(target.MALU)
							in.Alu, in.Size, in.Signed, in.FP, in.NoTrap = alu, size, signed, fp, nt
							in.Rd, in.Rs1 = reg(), reg()
							switch src {
							case 0:
								in.Rs2 = reg()
							case 1:
								in.HasImm, in.Imm = true, aluImm()
							default:
								in.HasMem = true
								withMem(&in, src == 3)
							}
							add("alu."+alu.String()+flagsOf(&in), in)
							if in.SetsFlags = true; d.SetsFlagsFits(&in) {
								flagged = append(flagged, form{"alu." + alu.String() + flagsOf(&in), []target.MInstr{in}})
							}
						}
					}
				}
			}
		}
	}
	var cmps []target.MInstr
	for _, signed := range bools {
		for _, fp := range bools {
			for _, hasImm := range bools {
				in := mi(target.MCmp)
				in.Signed, in.FP, in.Rs1 = signed, fp, reg()
				if hasImm {
					in.HasImm, in.Imm = true, aluImm()
				} else {
					in.Rs2 = reg()
				}
				add("cmp"+flagsOf(&in), in)
				cmps = append(cmps, in)
			}
		}
	}
	for cnd := target.CondEQ; cnd <= target.CondLE; cnd++ {
		for _, signed := range bools {
			for _, fp := range bools {
				for _, hasImm := range bools {
					in := mi(target.MSetCC)
					in.Cnd, in.Signed, in.FP = cnd, signed, fp
					in.Rd, in.Rs1 = reg(), reg()
					if hasImm {
						in.HasImm, in.Imm = true, aluImm()
					} else {
						in.Rs2 = reg()
					}
					add("setcc."+cnd.String()+flagsOf(&in), in)
				}
			}
		}
		jcc := mi(target.MJcc)
		jcc.Cnd, jcc.Rs1, jcc.Target = cnd, reg(), int32(rng.Intn(4096)-2048)
		add("jcc."+cnd.String(), jcc)

		// A compare and the branch behind it: one op where the target has
		// flags. The branch's target is the setcc that follows, which the
		// fall-through reaches too, so on either path it reads the flags
		// the pair left.
		jccLen := len(encodeOne(d, &jcc))
		for _, cmp := range cmps {
			j := jcc
			add("cmp"+flagsOf(&cmp)+"+jcc."+cnd.String(), cmp, j)
			j.Target = int32(jccLen / d.RelBranchScale)
			set := mi(target.MSetCC)
			set.Cnd, set.Rd, set.Rs1, set.Rs2 = target.Cond(rng.Intn(6)), reg(), reg(), reg()
			add("cmp"+flagsOf(&cmp)+"+jcc."+cnd.String()+"+setcc", cmp, j, set)
		}
	}
	jmp := mi(target.MJmp)
	jmp.Target = int32(rng.Intn(4096) - 2048)
	add("jmp", jmp)
	call := mi(target.MCall)
	call.Target = int32(rng.Intn(1 << 20))
	add("call", call)
	calli := mi(target.MCallInd)
	calli.Rs1 = reg()
	add("calli", calli)
	for _, ext := range []struct {
		sym   string
		nargs uint8
	}{{"clock", 0}, {"exit", 1}, {"fabs", 1}, {"llva.priv.get", 0}, {"llva.priv.set", 1},
		{"llva.trap.raise", 1}, {"llva.stack.depth", 0}, {"llva.smc.replace", 2}, {JITExtern, 0},
		{"no_such_extern", 3}, {"clock", 20}} {
		in := mi(target.MCallExt)
		in.Sym, in.NArgs = ext.sym, ext.nargs
		add("callext."+ext.sym, in)
	}
	bad := mi(target.MCallExt)
	bad.Target = -1
	add("callext.badindex", bad)
	add("ret", mi(target.MRet))
	for _, op := range []target.MOp{target.MPush, target.MPop} {
		for _, r := range []target.Reg{reg(), reg(), d.SP, target.NoReg} {
			in := mi(op)
			in.Rd, in.Rs1 = r, r // each encodes the one it has
			add(op.String(), in)
		}
	}
	for cvt := target.CvtIntExt; cvt <= target.CvtBits; cvt++ {
		for _, size := range sizes {
			for _, signed := range bools {
				for _, fp := range bools {
					in := mi(target.MCvt)
					in.Cvt, in.Size, in.Signed, in.FP = cvt, size, signed, fp
					in.Rd, in.Rs1 = reg(), reg()
					add("cvt."+cvt.String()+flagsOf(&in), in)
				}
			}
		}
	}
	ipush := mi(target.MInvokePush)
	ipush.Target = int32(rng.Intn(4096) - 2048)
	add("invokepush", ipush)
	add("invokepop", mi(target.MInvokePop))
	add("unwind", mi(target.MUnwind))
	trap := mi(target.MTrap)
	trap.Imm = int64(rng.Intn(8))
	add("trap", trap)
	for _, by := range []int64{16, -16, 8, -(1 << 20)} {
		adj := mi(target.MAdjSP)
		adj.Imm = by
		add("adjsp", adj)
	}
	return append(forms, flagged...)
}

func encodeOne(d *target.Desc, in *target.MInstr) []byte {
	code, _ := d.Encode(in, nil)
	return code
}

// oracleMachine builds a machine with no program over a small memory of
// the given byte order.
func oracleMachine(t testing.TB, d *target.Desc, little bool) *Machine {
	t.Helper()
	env := rt.NewEnv(mem.New(oracleMem, little), io.Discard)
	mc, err := New(d, core.NewModule("oracle"), env)
	if err != nil {
		t.Fatal(err)
	}
	mc.OnIntrinsic = func(name string, args []uint64) (uint64, error) {
		return uint64(len(name)) + args[0]<<8 ^ args[1], nil
	}
	return mc
}

// oracleState is what an operand set fixes before a form runs.
type oracleState struct {
	regs        [unifiedRegs]uint64
	flags       uint8
	privileged  bool
	trackCalls  bool
	calls       []uint64
	invokes     []invokeFrame
	stats       ExecStats
	mem         []byte // what the window and the stack page hold
	memAt, spAt uint64
}

func (st *oracleState) install(mc *Machine, t *testing.T) {
	t.Helper()
	mc.regs = [regSlots]uint64{}
	copy(mc.regs[:], st.regs[:])
	mc.flags = st.flags
	mc.privileged, mc.trackCalls = st.privileged, st.trackCalls
	mc.callStack = append(mc.callStack[:0], st.calls...)
	mc.invokeStack = append(mc.invokeStack[:0], st.invokes...)
	mc.Stats = st.stats
	for _, at := range []uint64{oracleWin, oracleStack} {
		if err := mc.mem.WriteBytes(at, st.mem); err != nil {
			t.Fatal(err)
		}
	}
}

// randomState draws an operand set for prog: mostly values that make its
// memory operands and its stack accesses land in mapped memory, with the
// null page, the end of memory, wrapping addresses and plain noise mixed in.
func randomState(rng *rand.Rand, d *target.Desc, prog []target.MInstr) *oracleState {
	st := &oracleState{}
	pool := []uint64{0, 1, 2, 3, 7, 8, 64, 255, 256, 1 << 31, 1<<32 - 1, 1 << 32, 1 << 63,
		^uint64(0), ^uint64(0) - 7, math.MaxInt64, 0x8000_0000_0000_0001,
		math.Float64bits(1.5), math.Float64bits(-2.25), math.Float64bits(1e300),
		math.Float64bits(3e-310), math.Float64bits(math.NaN()), math.Float64bits(math.Inf(1)),
		math.Float64bits(math.Inf(-1)), math.Float64bits(-0.0), math.Float64bits(1 << 63),
		math.Float64bits(-(1 << 63)), math.Float64bits(1 << 64), math.Float64bits(0.1),
		8, 0xfff, 0xffc, 0x1000, oracleMem - 8, oracleMem - 4, oracleMem - 1, oracleMem, oracleMem + 8,
		oracleWin + oraclePage - 4, // a store here spans two pages
	}
	for i := range st.regs {
		switch k := rng.Intn(8); {
		case k < 3:
			st.regs[i] = pool[rng.Intn(len(pool))]
		case k < 5:
			st.regs[i] = uint64(rng.Intn(17)) - 4 // small, either sign
		case k < 6:
			st.regs[i] = oracleWin + 64 + uint64(rng.Intn(oraclePage-128))
		default:
			st.regs[i] = rng.Uint64()
		}
	}
	for i := range prog {
		in := &prog[i]
		if in.Base < unifiedRegs && rng.Intn(4) != 0 {
			st.regs[in.Base] = oracleWin + 128 + uint64(rng.Intn(oraclePage-256))
			if in.Index < unifiedRegs && in.Index != in.Base {
				st.regs[in.Index] = uint64(rng.Intn(13)) - 4
			}
		} else if in.Base == target.NoReg && in.Index < unifiedRegs && rng.Intn(4) != 0 {
			// an absolute operand's displacement is in the window
			st.regs[in.Index] = uint64(rng.Intn(13)) - 4
		}
	}
	if rng.Intn(4) != 0 {
		st.regs[d.SP] = oracleStack + 64 + 8*uint64(rng.Intn((oraclePage-128)/8))
	}
	if d.WordSize == 4 {
		st.regs[0] = 0 // vsparc's invariant
	}
	st.flags = uint8(rng.Intn(4))
	st.privileged = rng.Intn(4) != 0
	st.trackCalls = rng.Intn(2) == 0
	if st.trackCalls {
		for i := rng.Intn(4); i > 0; i-- {
			st.calls = append(st.calls, rng.Uint64())
		}
	}
	for i := rng.Intn(3); i > 0; i-- {
		st.invokes = append(st.invokes, invokeFrame{handler: rng.Uint64(), sp: rng.Uint64(),
			fp: rng.Uint64(), depth: rng.Intn(5)})
	}
	st.stats = ExecStats{Instrs: uint64(rng.Intn(1000)), Cycles: uint64(rng.Intn(1000)),
		Calls: uint64(rng.Intn(10)), Branches: uint64(rng.Intn(10))}
	st.mem = make([]byte, oraclePage)
	rng.Read(st.mem)
	return st
}

// oracleBlocks bounds a form's run: a branch whose random target happens
// to fall inside the form's own code would otherwise never leave it.
const oracleBlocks = 4

// TestUopMatchesReference holds the lowering to the reference evaluator
// (exec_ref_test.go): on both targets, over little- and big-endian
// memory, every encodable instruction form is run from oracleSets random
// machine states through the block engine and through the reference, and
// both must leave the same registers, flags, memory, PC, counters, stacks
// and error.
func TestUopMatchesReference(t *testing.T) {
	for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
		for _, little := range []bool{true, false} {
			order := map[bool]string{true: "le", false: "be"}[little]
			t.Run(d.Name+"/"+order, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(len(d.Name)) + int64(len(order))<<8))
				eng := oracleMachine(t, d, little)
				ref := &refCPU{Machine: oracleMachine(t, d, little)}
				forms := oracleForms(d, rng)
				fused := 0
				for _, f := range forms {
					at, err := eng.emit(f.prog...)
					if err != nil {
						t.Fatal(err)
					}
					if at2, err := ref.emit(f.prog...); err != nil || at2 != at {
						t.Fatalf("%s: reference placed the form at 0x%x, %v; the engine at 0x%x", f.name, at2, err, at)
					}
					end := eng.codeEnd
					if b, err := eng.blockFor(at); err == nil && len(f.prog) > 1 && d.HasFlags {
						if b.ops[0].op < uCmpJccS || b.ops[0].op > uCmpJccF {
							t.Fatalf("%s: not fused: the block opens with op %d", f.name, b.ops[0].op)
						}
						fused++
					}
					refBlocks := map[uint64][]refDecoded{}
					refEnds := map[uint64]uint64{}
					for set := 0; set < oracleSets; set++ {
						st := randomState(rng, d, f.prog)
						st.install(eng, t)
						st.install(ref.Machine, t)
						ref.flagEQ, ref.flagLT = st.flags&flagEQ != 0, st.flags&flagLT != 0

						var engErr, refErr error
						eng.pc = at
						for k := 0; k < oracleBlocks && engErr == nil && eng.pc >= at && eng.pc < end; k++ {
							var b *block
							if b, engErr = eng.blockFor(eng.pc); engErr == nil {
								_, engErr = eng.runBlock(b)
							}
						}
						ref.pc = at
						for k := 0; k < oracleBlocks && refErr == nil && ref.pc >= at && ref.pc < end; k++ {
							pc := ref.pc
							if _, ok := refBlocks[pc]; !ok {
								if refBlocks[pc], refEnds[pc], refErr = ref.build(pc); refErr != nil {
									break
								}
							}
							refErr = ref.runBlock(refBlocks[pc], refEnds[pc])
						}
						if diff := oracleDiff(eng, ref, engErr, refErr); diff != "" {
							t.Fatalf("%s, operand set %d: %s\nprogram: %v\nregisters before: %x", f.name, set, diff, progString(f.prog), st.regs)
						}
					}
					if !bytes.Equal(memImage(t, eng), memImage(t, ref.Machine)) {
						t.Fatalf("%s: memory outside the window and the stack page differs", f.name)
					}
				}
				if d.HasFlags && fused == 0 {
					t.Error("no form was fused")
				}
				t.Logf("%d forms x %d operand sets, %d of them fused pairs", len(forms), oracleSets, fused)
			})
		}
	}
}

func progString(prog []target.MInstr) (s []string) {
	for i := range prog {
		s = append(s, prog[i].String())
	}
	return s
}

func memImage(t *testing.T, mc *Machine) []byte {
	t.Helper()
	b, err := mc.mem.Bytes(mem.NullGuard, oracleMem-mem.NullGuard)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// oracleDiff names the first difference between the engine's and the
// reference's state after a run, "" when there is none.
func oracleDiff(eng *Machine, ref *refCPU, engErr, refErr error) string {
	if reflect.TypeOf(engErr) != reflect.TypeOf(refErr) || (engErr != nil && engErr.Error() != refErr.Error()) {
		return fmt.Sprintf("error %v, reference %v", engErr, refErr)
	}
	if te, ok := engErr.(*TrapError); ok && *te != *refErr.(*TrapError) {
		return fmt.Sprintf("trap %+v, reference %+v", *te, *refErr.(*TrapError))
	}
	for i := 0; i < unifiedRegs; i++ {
		if eng.regs[i] != ref.regs[i] {
			return fmt.Sprintf("%s = 0x%x, reference 0x%x", target.Reg(i), eng.regs[i], ref.regs[i])
		}
	}
	if eng.regs[zeroSlot] != 0 {
		return fmt.Sprintf("the zero slot holds 0x%x", eng.regs[zeroSlot])
	}
	switch {
	case eng.flags != ref.flagBits():
		return fmt.Sprintf("flags %02b, reference %02b", eng.flags, ref.flagBits())
	case eng.pc != ref.pc:
		return fmt.Sprintf("pc 0x%x, reference 0x%x", eng.pc, ref.pc)
	case eng.pendCycles != 0 || ref.pendCycles != 0:
		return fmt.Sprintf("pending cycles %d, reference %d: both must be 0 between blocks", eng.pendCycles, ref.pendCycles)
	case eng.privileged != ref.privileged:
		return fmt.Sprintf("privileged %v, reference %v", eng.privileged, ref.privileged)
	case !reflect.DeepEqual(eng.callStack, ref.callStack):
		return fmt.Sprintf("call stack %x, reference %x", eng.callStack, ref.callStack)
	case !reflect.DeepEqual(eng.invokeStack, ref.invokeStack):
		return fmt.Sprintf("invoke stack %x, reference %x", eng.invokeStack, ref.invokeStack)
	}
	// The block counters are the engine's own: the reference keeps no
	// block cache and chains nothing.
	es, rs := eng.Stats, ref.Stats
	es.BlockBuilds, es.BlockChains, es.ICacheFills = 0, 0, 0
	if es != rs {
		return fmt.Sprintf("counters %+v, reference %+v", es, rs)
	}
	for _, at := range []uint64{oracleWin, oracleStack} {
		a, _ := eng.mem.Bytes(at, oraclePage)
		b, _ := ref.mem.Bytes(at, oraclePage)
		if !bytes.Equal(a, b) {
			return fmt.Sprintf("memory at 0x%x differs", at)
		}
	}
	return ""
}

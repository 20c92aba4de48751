package machine

import (
	"context"
	"testing"

	"llva/internal/prof"
	"llva/internal/target"
)

// link resolves the branches of prog: to[i] = j makes instruction i's
// relative target instruction j (len(prog): the end).
func link(d *target.Desc, prog []target.MInstr, to map[int]int) {
	off := make([]int, len(prog)+1)
	for i := range prog {
		off[i+1] = off[i] + len(encodeOne(d, &prog[i]))
	}
	for i, j := range to {
		prog[i].Target = int32((off[j] - off[i]) / d.RelBranchScale)
	}
}

// BenchmarkDispatch prices each class of work the block engine does, on
// hand-assembled vx86 loops: one count-down loop per class, its body eight
// instructions of the class (or the control transfer being priced), run
// for dispatchIters iterations per op. host-ns/guest-instr is the figure
// to read: wall time over instructions retired, loop overhead (sub, cmp,
// jcc: one fused pair) included, so classes compare against alu-rr and a
// change to the engine compares class by class:
//
//	go test -run '^$' -bench Dispatch -benchtime 20x -count 5 ./internal/machine
//
// The variants price what can be armed around the same loop: dirty-page
// tracking (store-sealed), the profiler's shadow call stack (call-ret-
// shadow), a gas budget, a cancellable context, a call out to the native
// runtime (callext: four calls of clock() an iteration, each ending its
// block), and a block exit that is
// resolved through the block map instead of a chained pointer (map-exit
// leaves each iteration by a ret to a pushed address; chain-exit does the
// same stack traffic and leaves by a jmp; chain-exit-profiled is chain-exit
// counting its block entries for an attached profiler).
func BenchmarkDispatch(b *testing.B) {
	const dispatchIters = 20_000
	const rN, rA, rB, rP, rL = 6, 7, 8, 9, 10
	d := target.VX86
	alu := func(op target.ALUOp, size uint8, signed bool, rd, rs1 target.Reg) target.MInstr {
		in := mi(target.MALU)
		in.Alu, in.Size, in.Signed, in.Rd, in.Rs1 = op, size, signed, rd, rs1
		return in
	}
	// loop wraps body in "rN = iters; L: body; rN--; if rN != 0 goto L; ret".
	// Branches inside body are linked by the caller, relative to it.
	loop := func(body ...target.MInstr) []target.MInstr {
		init := mi(target.MMovRI)
		init.Rd, init.Imm = rN, dispatchIters
		dec := alu(target.ASub, 8, false, rN, rN)
		dec.HasImm, dec.Imm = true, 1
		cmp, jcc := mi(target.MCmp), mi(target.MJcc)
		cmp.Rs1, cmp.HasImm, cmp.Signed = rN, true, true
		jcc.Cnd = target.CondNE
		prog := append([]target.MInstr{init}, body...)
		prog = append(prog, dec, cmp, jcc, mi(target.MRet))
		link(d, prog, map[int]int{len(prog) - 2: 1})
		return prog
	}
	repeat := func(in target.MInstr, n int) (body []target.MInstr) {
		for i := 0; i < n; i++ {
			in.Disp = int32(8 * i)
			body = append(body, in)
		}
		return body
	}
	addRR := alu(target.AAdd, 8, false, rA, rA)
	addRR.Rs2 = rB
	addRI := alu(target.AAdd, 4, true, rA, rA)
	addRI.HasImm, addRI.Imm = true, 3
	load, store := mi(target.MLoad), mi(target.MStore)
	load.Rd, load.Base, load.Size = rA, rP, 8
	store.Rs1, store.Base, store.Size = rA, rP, 8
	push, pop, jmp := mi(target.MPush), mi(target.MPop), mi(target.MJmp)
	push.Rs1, pop.Rd = rL, rA
	callext := mi(target.MCallExt)
	callext.Sym = "clock" // no arguments, no effect: the dispatch is what is priced

	type variant struct {
		name   string
		body   []target.MInstr
		callee bool // body[i].Target is patched to a one-instruction callee
		arm    func(mc *Machine)
		ctx    func() (context.Context, context.CancelFunc)
	}
	calls := repeat(mi(target.MCall), 4)
	// The two exits share "push rL" and differ in how the pushed address is
	// consumed: ret transfers to it (rL holds the loop tail's address, set
	// below), pop discards it and a jmp goes to the same place.
	mapExit := []target.MInstr{push, mi(target.MRet)}
	chainExit := []target.MInstr{push, pop, jmp}
	link(d, chainExit, map[int]int{2: 3})
	variants := []variant{
		{name: "alu-rr", body: repeat(addRR, 8)},
		{name: "alu-ri", body: repeat(addRI, 8)},
		{name: "load", body: repeat(load, 8)},
		{name: "store-unsealed", body: repeat(store, 8)},
		{name: "store-sealed", body: repeat(store, 8), arm: func(mc *Machine) {
			if err := mc.Seal(); err != nil {
				b.Fatal(err)
			}
		}},
		{name: "call-ret", body: calls, callee: true},
		{name: "call-ret-shadow", body: calls, callee: true, arm: func(mc *Machine) { mc.SetProfiler(prof.NewProfiler(1 << 40)) }},
		{name: "callext", body: repeat(callext, 4)},
		{name: "chain-exit", body: chainExit},
		// The profiler attached, its sampler never due: what counting every
		// block entry adds to the chained transition.
		{name: "chain-exit-profiled", body: chainExit, arm: func(mc *Machine) { mc.SetProfiler(prof.NewProfiler(1 << 40)) }},
		{name: "map-exit", body: mapExit},
		{name: "alu-rr-gas", body: repeat(addRR, 8), arm: func(mc *Machine) { mc.SetGas(1 << 60) }},
		{name: "alu-rr-cancel", body: repeat(addRR, 8), ctx: func() (context.Context, context.CancelFunc) {
			return context.WithCancel(context.Background())
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			mc := oracleMachine(b, d, true)
			body := append([]target.MInstr{}, v.body...)
			if v.callee {
				callee, err := mc.emit(mi(target.MRet))
				if err != nil {
					b.Fatal(err)
				}
				for i := range body {
					body[i].Target = int32(callee / uint64(d.CallTargetScale))
				}
			}
			prog := loop(body...)
			entry, err := mc.emit(prog...)
			if err != nil {
				b.Fatal(err)
			}
			mc.bind("f", entry)
			tail := entry
			for i := 0; i <= len(body); i++ { // past init and the body: the loop's "rN--"
				tail += uint64(len(encodeOne(d, &prog[i])))
			}
			if v.arm != nil {
				v.arm(mc)
			}
			ctx, cancel := context.Background(), context.CancelFunc(func() {})
			if v.ctx != nil {
				ctx, cancel = v.ctx()
			}
			defer cancel()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mc.regs[rP], mc.regs[rL], mc.regs[rB] = oracleWin, tail, 5
				if _, err := mc.RunContext(ctx, "f"); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(mc.Stats.Instrs), "host-ns/guest-instr")
			b.ReportMetric(float64(mc.Stats.BlockChains)/float64(b.N*dispatchIters), "chains/iter")
		})
	}
}

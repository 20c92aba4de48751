// Quickstart: build an LLVA function with the IR builder, verify it,
// print its assembly, encode it to virtual object code, then execute it
// three ways — on the reference interpreter and, via the LLEE execution
// manager, JIT-translated onto both simulated processors.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"llva/internal/asm"
	"llva/internal/core"
	"llva/internal/interp"
	"llva/internal/llee"
	"llva/internal/obj"
	"llva/internal/target"
)

// buildModule constructs:
//
//	long %sumsq(long %n) { sum of i*i for i in [0, n) }
//	int  %main()         { print_int(sumsq(100)); }
func buildModule() *core.Module {
	m := core.NewModule("quickstart")
	ctx := m.Types()

	long := ctx.Long()
	sumsq := m.NewFunction("sumsq", ctx.Function(long, []*core.Type{long}, false))
	n := sumsq.Params[0]
	n.SetName("n")

	entry := sumsq.NewBlock("entry")
	loop := sumsq.NewBlock("loop")
	exit := sumsq.NewBlock("exit")

	b := core.NewBuilder(sumsq)
	b.SetBlock(entry)
	b.Br(loop)

	b.SetBlock(loop)
	i := b.Phi(long, "i")
	sum := b.Phi(long, "sum")
	sq := b.Mul(i, i, "sq")
	sum2 := b.Add(sum, sq, "sum2")
	i2 := b.Add(i, core.NewInt(long, 1), "i2")
	done := b.SetGE(i2, n, "done")
	b.CondBr(done, exit, loop)

	i.AddPhiIncoming(core.NewInt(long, 0), entry)
	i.AddPhiIncoming(i2, loop)
	sum.AddPhiIncoming(core.NewInt(long, 0), entry)
	sum.AddPhiIncoming(sum2, loop)

	b.SetBlock(exit)
	res := b.Phi(long, "res")
	res.AddPhiIncoming(sum2, loop)
	b.Ret(res)

	// %main prints the result through the runtime library.
	printInt := m.NewFunction("print_int", ctx.Function(ctx.Void(), []*core.Type{long}, false))
	printNL := m.NewFunction("print_nl", ctx.Function(ctx.Void(), nil, false))
	mainFn := m.NewFunction("main", ctx.Function(ctx.Int(), nil, false))
	mb := core.NewBuilder(mainFn)
	mb.SetBlock(mainFn.NewBlock("entry"))
	v := mb.Call(sumsq, []core.Value{core.NewInt(long, 100)}, "v")
	mb.Call(printInt, []core.Value{v}, "")
	mb.Call(printNL, nil, "")
	mb.Ret(core.NewInt(ctx.Int(), 0))
	return m
}

func main() {
	m := buildModule()
	if err := core.Verify(m); err != nil {
		log.Fatalf("verify: %v", err)
	}

	fmt.Println("=== LLVA assembly ===")
	fmt.Print(asm.Print(m))

	data, err := obj.Encode(m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n=== virtual object code: %d bytes for %d instructions ===\n",
		len(data), m.Function("sumsq").NumInstructions()+m.Function("main").NumInstructions())

	fmt.Println("\n=== reference interpreter ===")
	ip, err := interp.New(m, os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := ip.RunMain(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("(%d LLVA instructions executed)\n", ip.Stats.Instructions)

	// One System per process; one Session per execution. Sessions of the
	// same module share the system's translation cache.
	sys := llee.NewSystem()
	defer sys.Close()
	for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
		fmt.Printf("\n=== LLEE + JIT on %s ===\n", d.Name)
		sess, err := sys.NewSession(m, d, os.Stdout)
		if err != nil {
			log.Fatal(err)
		}
		translated := sys.Telemetry().Counter(llee.MetricTranslations) // aggregates system-wide
		before := translated.Value()
		res, err := sess.Run(context.Background(), "main")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("(%d native instructions, %d cycles, %d functions JIT-translated)\n",
			res.Instrs, res.Cycles, translated.Value()-before)
	}
}

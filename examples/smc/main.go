// SMC: the paper's constrained self-modifying code model (Section 3.4).
// A program replaces one of its own functions via the llva.smc.replace
// intrinsic; the change takes effect on the NEXT invocation only. On the
// simulated processor this exercises the full translator path: LLEE marks
// the generated native code invalid and retranslates on the next call,
// the same whether that code was translated on demand (the cold run) or
// loaded from the offline cache (the warm run over the same storage).
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"llva/internal/asm"
	"llva/internal/core"
	"llva/internal/interp"
	"llva/internal/llee"
	"llva/internal/target"
)

const program = `
declare void %llva.smc.replace(sbyte* %target, sbyte* %source)
declare void %print_int(long %v)
declare void %print_char(long %c)
declare void %print_nl()

;; A kernel the program replaces at run time, like dynamic code
;; generation for high-performance kernels (which the paper notes is the
;; common real use of self-modification). The two versions compute
;; different numbers, so the output shows which one each call ran.
long %kernel(long %x) {
entry:
    %r = mul long %x, 8
    ret long %r
}
long %kernel.tuned(long %x) {
entry:
    %r = add long %x, 1000
    ret long %r
}

int %main() {
entry:
    br label %loop
loop:
    %i = phi long [ 0, %entry ], [ %i2, %cont ]
    %v = call long %kernel(long %i)
    call void %print_int(long %v)
    call void %print_char(long 32)
    ;; after iteration 2, install the tuned kernel — affects the NEXT call
    %switch = seteq long %i, 2
    br bool %switch, label %replace, label %cont
replace:
    %t = cast long (long)* %kernel to sbyte*
    %s = cast long (long)* %kernel.tuned to sbyte*
    call void %llva.smc.replace(sbyte* %t, sbyte* %s)
    br label %cont
cont:
    %i2 = add long %i, 1
    %more = setlt long %i2, 6
    br bool %more, label %loop, label %done
done:
    call void %print_nl()
    ret int 0
}
`

func main() {
	m, err := asm.Parse("smc", program)
	if err != nil {
		log.Fatal(err)
	}
	if err := core.Verify(m); err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== interpreter ===")
	var out strings.Builder
	ip, err := interp.New(m, &out)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := ip.RunMain(); err != nil {
		log.Fatal(err)
	}
	fmt.Print(out.String())
	fmt.Printf("%d code invalidation(s)\n", ip.Stats.SMCInvalidations)

	for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
		store := llee.NewMemStorage()
		for _, start := range []string{"cold", "warm"} {
			fmt.Printf("\n=== %s, %s start: invalidation + retranslation ===\n", d.Name, start)
			var mout strings.Builder
			sys := llee.NewSystem(llee.WithStorage(store))
			sess, err := sys.NewSession(m, d, &mout)
			if err != nil {
				log.Fatal(err)
			}
			if _, err := sess.Run(context.Background(), "main"); err != nil {
				log.Fatal(err)
			}
			if err := sys.Close(); err != nil {
				log.Fatal(err)
			}
			if mout.String() != out.String() {
				log.Fatalf("%s, %s start printed %q, the interpreter %q", d.Name, start, mout.String(), out.String())
			}
			fmt.Print(mout.String())
			tele := sys.Telemetry()
			fmt.Printf("cache hit: %v, functions translated: %d, invalidations: %d\n", sess.CacheHit(),
				tele.CounterValue(llee.MetricTranslations), tele.CounterValue(llee.MetricInvalidations))
		}
	}
	fmt.Println("\nboth versions ran: 0 8 16 (kernel, x*8) then 1003 1004 1005 (kernel.tuned, x+1000)")
}

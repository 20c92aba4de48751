// OS kernel support: the paper's Section 3.5 mechanisms — intrinsic
// functions, the privileged bit, trap handlers as ordinary LLVA
// functions, and the Section 4.1 storage-API registration that lets an
// operating system enable offline translation caching.
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
	"llva/internal/minic"
	"llva/internal/target"
)

const kernel = `
declare bool %llva.priv.get()
declare void %llva.priv.set(bool %p)
declare void %llva.trap.register(uint %num, sbyte* %handler)
declare void %llva.trap.raise(uint %num)
declare void %llva.storage.register(sbyte* %api)
declare sbyte* %llva.storage.get()
declare void %print_str(sbyte* %s)
declare void %print_int(long %v)
declare void %print_nl()

%msg.boot = constant [14 x ubyte] "kernel: boot "
%msg.trap = constant [15 x ubyte] "handler: trap "
%msg.user = constant [18 x ubyte] "user: privileged="

;; A trap handler is an ordinary LLVA function taking the trap number and
;; a void* info pointer (paper, Section 3.5).
void %handler(uint %num, sbyte* %info) {
entry:
    %p = getelementptr [15 x ubyte]* %msg.trap, long 0, long 0
    %p8 = cast ubyte* %p to sbyte*
    call void %print_str(sbyte* %p8)
    %n = cast uint %num to long
    call void %print_int(long %n)
    call void %print_nl()
    ret void
}

void %usercode() {
entry:
    %p = getelementptr [18 x ubyte]* %msg.user, long 0, long 0
    %p8 = cast ubyte* %p to sbyte*
    call void %print_str(sbyte* %p8)
    %priv = call bool %llva.priv.get()
    %pl = cast bool %priv to long
    call void %print_int(long %pl)
    call void %print_nl()
    ;; raising a user trap dispatches to the registered handler
    call void %llva.trap.raise(uint 17)
    ret void
}

int %main() {
entry:
    %b = getelementptr [14 x ubyte]* %msg.boot, long 0, long 0
    %b8 = cast ubyte* %b to sbyte*
    call void %print_str(sbyte* %b8)
    call void %print_nl()

    ;; the OS registers its storage-API entry point with the translator
    ;; (a simple, indefinitely extensible linkage mechanism, Section 4.1)
    %api = cast long 81985529216486895 to sbyte*
    call void %llva.storage.register(sbyte* %api)
    %got = call sbyte* %llva.storage.get()
    %same = seteq sbyte* %got, %api
    %sl = cast bool %same to long
    call void %print_int(long %sl)
    call void %print_nl()

    ;; install a trap handler while privileged
    %h = cast void (uint, sbyte*)* %handler to sbyte*
    call void %llva.trap.register(uint 17, sbyte* %h)

    ;; drop privileges and enter user code
    call void %llva.priv.set(bool false)
    call void %usercode()
    ret int 0
}
`

func main() {
	m, err := asm.Parse("oskernel", kernel)
	if err != nil {
		log.Fatal(err)
	}
	if err := core.Verify(m); err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== trap handlers, privilege, storage registration (interpreter) ===")
	var out strings.Builder
	ip, err := interp.New(m, &out)
	if err != nil {
		log.Fatal(err)
	}
	_, err = ip.RunMain()
	fmt.Print(out.String())
	if te, ok := err.(*interp.TrapError); ok {
		fmt.Printf("after the handler returned, trap %d remained fatal for the faulting code (precise)\n", te.Num)
	} else if err != nil {
		log.Fatal(err)
	}

	// A user-mode attempt to use a privileged intrinsic must trap.
	fmt.Println("\n=== privilege enforcement ===")
	bad := `
declare void %llva.priv.set(bool %p)
int %main() {
entry:
    call void %llva.priv.set(bool false)
    ;; now unprivileged: this must raise a privilege trap
    call void %llva.priv.set(bool true)
    ret int 0
}
`
	m2, err := asm.Parse("priv", bad)
	if err != nil {
		log.Fatal(err)
	}
	ip2, err := interp.New(m2, &out)
	if err != nil {
		log.Fatal(err)
	}
	_, err = ip2.RunMain()
	if te, ok := err.(*interp.TrapError); ok && te.Num == interp.TrapPrivilege {
		fmt.Println("privileged intrinsic from user mode: privilege trap delivered ✓")
	} else {
		log.Fatalf("expected privilege trap, got %v", err)
	}

	// The OS side of Section 4.1: with the storage API implemented
	// (directory-backed here), translations persist across "boots".
	fmt.Println("\n=== storage API: offline caching across runs ===")
	prog, err := minic.Compile("app", `
int main() { print_str("app output"); print_nl(); return 0; }
`)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := llee.NewDirStorage("/tmp/llva-oskernel-cache")
	if err != nil {
		log.Fatal(err)
	}
	for run := 1; run <= 2; run++ {
		var o strings.Builder
		sys := llee.NewSystem(llee.WithStorage(dir))
		sess, err := sys.NewSession(prog, target.VSPARC, &o)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := sess.Run(context.Background(), "main"); err != nil {
			log.Fatal(err)
		}
		if err := sys.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("run %d: cacheHit=%v translated=%d output=%q\n",
			run, sess.CacheHit(), sys.Telemetry().CounterValue(llee.MetricTranslations), o.String())
	}
}

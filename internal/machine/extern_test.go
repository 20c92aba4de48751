package machine

import (
	"strings"
	"testing"

	"llva/internal/rt"
	"llva/internal/target"
)

// externLoop assembles "call name n times; ret" as %f on mc.
func externLoop(t *testing.T, mc *Machine, name string, n int) {
	t.Helper()
	call := mi(target.MCallExt)
	call.Sym = name
	var prog []target.MInstr
	for i := 0; i < n; i++ {
		prog = append(prog, call)
	}
	entry, err := mc.emit(append(prog, mi(target.MRet))...)
	if err != nil {
		t.Fatal(err)
	}
	mc.bind("f", entry)
}

// An extern is resolved to its runtime function the first time it is
// called, and again when the environment registers a function after
// that: the next call reaches what the name means now. Both engines'
// counters move once per call either way.
func TestExternBindsOnceAndRebinds(t *testing.T) {
	mc := oracleMachine(t, target.VX86, true)
	var first, second int
	mc.env.Register("probe", func(*rt.Env, []uint64) (uint64, error) { first++; return 1, nil })
	externLoop(t, mc, "probe", 3)
	if got, err := mc.Run("f"); err != nil || got != 1 || first != 3 {
		t.Fatalf("first run: result %d, %v, %d calls; want 1, nil, 3", got, err, first)
	}
	idx := mc.externIdx["probe"]
	if b := mc.bound[idx]; b.kind != bindNative || b.fn == nil {
		t.Errorf("probe is bound as %+v after its first call", b)
	}

	mc.env.Register("probe", func(*rt.Env, []uint64) (uint64, error) { second++; return 2, nil })
	if got, err := mc.Run("f"); err != nil || got != 2 || first != 3 || second != 3 {
		t.Fatalf("after Register: result %d, %v, %d old and %d new calls; want 2, nil, 3, 3", got, err, first, second)
	}
	if mc.Stats.ExternCalls != 6 || mc.env.Stats.Calls != 6 {
		t.Errorf("ExternCalls = %d, env calls = %d; want 6 and 6", mc.Stats.ExternCalls, mc.env.Stats.Calls)
	}
}

// What a call of a name the runtime does not know, and of a privileged
// intrinsic without the privilege, report is what it was before externs
// were bound: the runtime's error by name on every call, and the trap.
func TestExternUnknownAndPrivileged(t *testing.T) {
	mc := oracleMachine(t, target.VX86, true)
	externLoop(t, mc, "no_such_fn", 1)
	for run := 0; run < 2; run++ {
		_, err := mc.Run("f")
		if err == nil || !strings.Contains(err.Error(), "rt: call to unknown external function %no_such_fn") {
			t.Errorf("run %d: %v", run, err)
		}
	}
	if mc.Stats.ExternCalls != 2 || mc.env.Stats.Calls != 0 {
		t.Errorf("ExternCalls = %d, env calls = %d; want 2 and 0", mc.Stats.ExternCalls, mc.env.Stats.Calls)
	}
	// Registered now, the same call site reaches it.
	mc.env.Register("no_such_fn", func(*rt.Env, []uint64) (uint64, error) { return 9, nil })
	if got, err := mc.Run("f"); err != nil || got != 9 {
		t.Errorf("after Register: %d, %v; want 9", got, err)
	}

	mc = oracleMachine(t, target.VX86, true)
	var priv string
	for name := range privilegedIntrinsics {
		priv = name
	}
	externLoop(t, mc, priv, 1)
	mc.SetPrivileged(false)
	for run := 0; run < 2; run++ {
		_, err := mc.Run("f")
		te, ok := err.(*TrapError)
		if !ok || te.Num != TrapPrivilege || te.Detail != "privileged intrinsic "+priv {
			t.Errorf("run %d of %s unprivileged: %v", run, priv, err)
		}
	}
}

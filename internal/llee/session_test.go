package llee

import (
	"context"
	"errors"
	"io"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"llva/internal/machine"
	"llva/internal/minic"
	"llva/internal/rt"
	"llva/internal/target"
	"llva/internal/telemetry"
)

// TestConcurrentSessionsTranslateOnce: 8 sessions of one module sharing
// one System and one storage must run correctly in parallel, and the
// module's demand table must translate each demanded function exactly
// once system-wide, on either target. Run under -race by CI.
func TestConcurrentSessionsTranslateOnce(t *testing.T) {
	for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
		t.Run(d.Name, func(t *testing.T) {
			m, err := minic.Compile("chain.c", chainProg)
			if err != nil {
				t.Fatal(err)
			}
			st := NewMemStorage()
			reg := telemetry.New()
			sys := NewSystem(WithStorage(st), WithTelemetry(reg))
			const sessions = 8
			outs := make([]strings.Builder, sessions)
			sess := make([]*Session, sessions)
			for i := range sess {
				s, err := sys.NewSession(m, d, &outs[i])
				if err != nil {
					t.Fatal(err)
				}
				sess[i] = s
			}
			var wg sync.WaitGroup
			for i := range sess {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					res, err := sess[i].Run(context.Background(), "main")
					if err != nil {
						t.Errorf("session %d: %v", i, err)
						return
					}
					if res.Value != 0 || res.Instrs == 0 || res.Cycles == 0 {
						t.Errorf("session %d: result = %+v", i, res)
					}
				}(i)
			}
			wg.Wait()
			for i := range outs {
				if outs[i].String() != "39\n" {
					t.Errorf("session %d: output = %q, want %q", i, outs[i].String(), "39\n")
				}
			}
			// The program executes main, top, mid, leaf: 4 unique functions,
			// so exactly 4 translations across 32 demands — the rest found
			// or waited for another session's.
			if got := reg.CounterValue(MetricTranslations); got != 4 {
				t.Errorf("%s = %d, want 4 (one per unique function)", MetricTranslations, got)
			}
			if got := len(reg.Events().Find(telemetry.EvJITRequest)); got != sessions*4 {
				t.Errorf("%d demands, want %d", got, sessions*4)
			}
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
			// The flushed cache warms a fresh system: zero further
			// translations.
			sys2 := NewSystem(WithStorage(st), WithTelemetry(telemetry.New()))
			var out2 strings.Builder
			s2, err := sys2.NewSession(m, d, &out2)
			if err != nil {
				t.Fatal(err)
			}
			if !s2.CacheHit() {
				t.Error("write-back of the demand table missed on the next system")
			}
			if _, err := s2.Run(context.Background(), "main"); err != nil {
				t.Fatal(err)
			}
			if out2.String() != "39\n" {
				t.Errorf("warm output = %q", out2.String())
			}
			if got := sys2.Telemetry().CounterValue(MetricTranslations); got != 0 {
				t.Errorf("warm system translated %d functions, want 0", got)
			}
		})
	}
}

// loopProg never terminates: only cancellation can stop it.
const loopProg = `
int main() {
	int i = 0;
	while (1) i = i + 1;
	return i;
}
`

// TestRunCancellation: canceling the context mid-run must stop the
// machine at a basic-block boundary with ErrCanceled, and the virtual
// clock must stay exact (every retired block's cycles accounted, no
// partial block pending).
func TestRunCancellation(t *testing.T) {
	m, err := minic.Compile("loop.c", loopProg)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem()
	sess, err := sys.NewSession(m, target.VX86, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := sess.Run(ctx, "main")
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the loop spin
	cancel()
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not stop the run")
	}
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, machine.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled in the chain", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, does not match context.Canceled", err)
	}
	var ce *machine.CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *machine.CancelError in the chain", err)
	}
	if ce.PC == 0 {
		t.Error("CancelError carries no boundary PC")
	}
	// Block-boundary stop: the virtual clock equals retired cycles
	// exactly — no half-executed block is pending.
	if clk, cyc := sess.Env().Clock(), sess.Machine().Stats.Cycles; clk != cyc {
		t.Errorf("virtual clock %d != retired cycles %d after cancel", clk, cyc)
	}
	if sess.Machine().Stats.Instrs == 0 {
		t.Error("run was canceled before executing anything")
	}
}

// TestRunDeadline: a context deadline classifies identically, matching
// both ErrCanceled and context.DeadlineExceeded.
func TestRunDeadline(t *testing.T) {
	m, err := minic.Compile("loop.c", loopProg)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem()
	sess, err := sys.NewSession(m, target.VSPARC, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err = sess.Run(ctx, "main")
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, does not match context.DeadlineExceeded", err)
	}
}

// TestRunPreCanceled: an already-canceled context stops the run at the
// first block boundary, before any user code retires.
func TestRunPreCanceled(t *testing.T) {
	m, err := minic.Compile("loop.c", loopProg)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem()
	sess, err := sys.NewSession(m, target.VX86, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.Run(ctx, "main"); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestErrorTaxonomy covers the remaining classifications: traps,
// unknown entries, and normal exits.
func TestErrorTaxonomy(t *testing.T) {
	src := `
int main() {
	int zero = 0;
	return 7 / zero;
}
`
	m, err := minic.Compile("trap.c", src)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem()
	sess, err := sys.NewSession(m, target.VX86, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sess.Run(context.Background(), "main")
	var trap *ErrTrap
	if !errors.As(err, &trap) {
		t.Fatalf("err = %v, want *llee.ErrTrap", err)
	}
	if trap.Num != machine.TrapDivByZero {
		t.Errorf("trap num = %d, want %d (div by zero)", trap.Num, machine.TrapDivByZero)
	}
	var mt *machine.TrapError
	if !errors.As(err, &mt) || mt.Num != trap.Num || mt.PC != trap.PC {
		t.Errorf("machine.TrapError not reachable through ErrTrap: %v", err)
	}

	// Unknown or declaration-only entry: ErrBadModule, before execution.
	if _, err := sess.Run(context.Background(), "no_such_function"); !errors.Is(err, ErrBadModule) {
		t.Errorf("unknown entry: err = %v, want ErrBadModule", err)
	}

	// exit() surfaces as ErrExit with the code on *rt.ExitError.
	srcExit := `int main() { exit(41); return 0; }`
	me, err := minic.Compile("exit.c", srcExit)
	if err != nil {
		t.Fatal(err)
	}
	se, err := sys.NewSession(me, target.VX86, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	_, err = se.Run(context.Background(), "main")
	if !errors.Is(err, ErrExit) {
		t.Fatalf("exit run: err = %v, want ErrExit", err)
	}
	var xe *rt.ExitError
	if !errors.As(err, &xe) || xe.Code != 41 {
		t.Errorf("exit run: err = %v, want *rt.ExitError with code 41", err)
	}
}

// TestDirStorageKeyCollisions: distinct keys that the old sanitizer
// flattened onto one file ("a/b" vs "a_b" vs "a:b") must stay distinct,
// and Keys must report the original key names.
func TestDirStorageKeyCollisions(t *testing.T) {
	st, err := NewDirStorage(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"a/b", "a_b", "a:b", "a b", "native:prog:vx86", "100%"}
	for i, k := range keys {
		if err := st.Write(k, "s", []byte{byte(i)}); err != nil {
			t.Fatalf("write %q: %v", k, err)
		}
	}
	for i, k := range keys {
		data, stamp, ok, err := st.Read(k)
		if err != nil || !ok || stamp != "s" {
			t.Fatalf("read %q: ok=%v stamp=%q err=%v", k, ok, stamp, err)
		}
		if len(data) != 1 || data[0] != byte(i) {
			t.Errorf("key %q read back %v, want [%d] — keys collided", k, data, i)
		}
	}
	got, err := st.Keys()
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, k := range got {
		found[k] = true
	}
	for _, k := range keys {
		if !found[k] {
			t.Errorf("Keys() lost %q (got %v)", k, got)
		}
	}
}

// TestDirStorageAtomicWrite: overwrites go through a rename, leave no
// temp files behind, and never produce a torn entry.
func TestDirStorageAtomicWrite(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Write("k", "s1", []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := st.Write("k", "s2", []byte("second")); err != nil {
		t.Fatal(err)
	}
	data, stamp, ok, err := st.Read("k")
	if err != nil || !ok || stamp != "s2" || string(data) != "second" {
		t.Fatalf("after overwrite: %q/%q ok=%v err=%v", stamp, data, ok, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("temp file %q left behind", e.Name())
		}
	}
	// Concurrent writers to one key must each leave a consistent entry.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := strings.Repeat(string(rune('a'+i)), 4096)
			for j := 0; j < 20; j++ {
				if err := st.Write("hot", "s", []byte(payload)); err != nil {
					t.Errorf("writer %d: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	data, _, ok, err = st.Read("hot")
	if err != nil || !ok {
		t.Fatalf("read hot: ok=%v err=%v", ok, err)
	}
	if len(data) != 4096 || strings.Count(string(data), string(data[0])) != 4096 {
		t.Errorf("torn write observed: %d bytes, mixed contents", len(data))
	}
}

// TestSessionRunUncancellableMatchesManager: a background-context run
// must be cycle-identical to the legacy Manager path (the cancellation
// poll is free when the context cannot be canceled).
func TestSessionRunUncancellableDeterministic(t *testing.T) {
	m1 := compileTest(t)
	sysRef := NewSystem()
	ref, err := sysRef.NewSession(m1, target.VX86, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(context.Background(), "main"); err != nil {
		t.Fatal(err)
	}
	m2 := compileTest(t)
	sys := NewSystem()
	sess, err := sys.NewSession(m2, target.VX86, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background(), "main")
	if err != nil {
		t.Fatal(err)
	}
	if mc := ref.Machine(); res.Cycles != mc.Stats.Cycles || res.Instrs != mc.Stats.Instrs {
		t.Errorf("run cost diverged between sessions: (%d cycles, %d instrs) vs (%d cycles, %d instrs)",
			res.Cycles, res.Instrs, mc.Stats.Cycles, mc.Stats.Instrs)
	}
}

// TestPreloadRacesSessions: Preload may publish the module's code while
// sessions of it are being created and are translating on demand. Every
// session, whichever side of the publication it was created on, must
// print the right answer, concurrent Preloads must agree, and a session
// created afterwards installs the whole module. Run under -race by CI.
func TestPreloadRacesSessions(t *testing.T) {
	m, err := minic.Compile("chain.c", chainProg)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(WithStorage(NewMemStorage()))
	defer sys.Close()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := sys.Preload(m, target.VX86); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			for run := 0; run < 4; run++ {
				var out strings.Builder
				s, err := sys.NewSession(m, target.VX86, &out)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Run(context.Background(), "main"); err != nil || out.String() != "39\n" {
					t.Errorf("output = %q, err = %v, want %q", out.String(), err, "39\n")
				}
			}
		}()
	}
	wg.Wait()
	s, err := sys.NewSession(m, target.VX86, io.Discard, WithReuse(true))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Resettable() || !s.CacheHit() {
		t.Errorf("session after Preload: Resettable = %v, CacheHit = %v", s.Resettable(), s.CacheHit())
	}
}

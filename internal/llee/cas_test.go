package llee

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"llva/internal/target"
	"llva/internal/telemetry"
)

func casObjects(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, "objects"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".tmp") {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestCASDedup: identical content written under different logical keys
// — and again through a second store instance sharing the directory —
// is stored once.
func TestCASDedup(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	st.SetTelemetry(reg)
	payload := []byte("identical native code")
	if err := st.Write("native:a:vx86", "s1", payload); err != nil {
		t.Fatal(err)
	}
	if err := st.Write("native:b:vx86", "s1", payload); err != nil {
		t.Fatal(err)
	}
	if n := len(casObjects(t, dir)); n != 1 {
		t.Errorf("objects = %d, want 1 (dedup)", n)
	}
	if n := reg.CounterValue(MetricCASDedups); n != 1 {
		t.Errorf("dedup counter = %d, want 1", n)
	}

	// A second store instance on the same directory picks the index up
	// from disk and dedups too.
	st2, err := NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg2 := telemetry.New()
	st2.SetTelemetry(reg2)
	if err := st2.Write("native:c:vsparc", "s1", payload); err != nil {
		t.Fatal(err)
	}
	if n := len(casObjects(t, dir)); n != 1 {
		t.Errorf("objects after cross-instance write = %d, want 1", n)
	}
	if n := reg2.CounterValue(MetricCASDedups); n != 1 {
		t.Errorf("cross-instance dedup counter = %d, want 1", n)
	}
	// All three keys read back, through either instance.
	for _, k := range []string{"native:a:vx86", "native:b:vx86", "native:c:vsparc"} {
		data, stamp, ok, err := st.Read(k)
		if err != nil || !ok || stamp != "s1" || string(data) != string(payload) {
			t.Errorf("read %q: data=%q stamp=%q ok=%v err=%v", k, data, stamp, ok, err)
		}
	}
	// Distinct content under one of the keys splits it off again, and
	// the shared object survives for the remaining keys.
	if err := st.Write("native:b:vx86", "s2", []byte("changed")); err != nil {
		t.Fatal(err)
	}
	if n := len(casObjects(t, dir)); n != 2 {
		t.Errorf("objects after divergent rewrite = %d, want 2", n)
	}
	if data, _, ok, _ := st.Read("native:a:vx86"); !ok || string(data) != string(payload) {
		t.Errorf("shared object lost after sibling rewrite: ok=%v data=%q", ok, data)
	}
}

// TestCASLRUEviction: with a byte cap, writes evict the
// least-recently-used key — and a Read refreshes recency.
func TestCASLRUEviction(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	st.SetTelemetry(reg)
	// Each entry is 1 (stamp) + 1 (newline) + 100 (payload) = 102 bytes;
	// the cap fits two.
	st.SetMaxBytes(250)
	pay := func(c byte) []byte { return []byte(strings.Repeat(string(c), 100)) }
	for _, k := range []string{"a", "b"} {
		if err := st.Write(k, "s", pay(k[0])); err != nil {
			t.Fatal(err)
		}
	}
	// Writing c must evict a (the oldest).
	if err := st.Write("c", "s", pay('c')); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, _ := st.Read("a"); ok {
		t.Error("a survived eviction; want LRU eviction of the oldest key")
	}
	if n := reg.CounterValue(MetricCASEvictions); n != 1 {
		t.Errorf("eviction counter = %d, want 1", n)
	}
	// Touch b, then write d: now c is the LRU victim, not b.
	if _, _, ok, _ := st.Read("b"); !ok {
		t.Fatal("b missing before recency test")
	}
	if err := st.Write("d", "s", pay('d')); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, _ := st.Read("b"); !ok {
		t.Error("b evicted despite being recently read")
	}
	if _, _, ok, _ := st.Read("c"); ok {
		t.Error("c survived; want it evicted as least recently used")
	}
	// Evicted keys' objects are gone from disk too.
	if n := len(casObjects(t, dir)); n != 2 {
		t.Errorf("objects on disk = %d, want 2 after evictions", n)
	}
}

// TestCASHitDoesNotWrite: with no byte cap nothing can ever be evicted,
// so a hit has no recency to record and touches nothing on disk: the
// index is the same file (identity, mtime, bytes), the directory lists
// the same names, and no temp file exists at any point (the directory's
// own mtime would move on a create + rename).
func TestCASHitDoesNotWrite(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	st.SetTelemetry(reg)
	if err := st.Write("k", "s", []byte("translated once")); err != nil {
		t.Fatal(err)
	}
	type state struct {
		index, dir os.FileInfo
		blob       string
		names      []string
	}
	snap := func() state {
		t.Helper()
		var s state
		var err error
		if s.index, err = os.Stat(filepath.Join(dir, casIndexName)); err != nil {
			t.Fatal(err)
		}
		if s.dir, err = os.Stat(dir); err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(filepath.Join(dir, casIndexName))
		if err != nil {
			t.Fatal(err)
		}
		s.blob = string(blob)
		for _, d := range []string{dir, filepath.Join(dir, "objects")} {
			ents, err := os.ReadDir(d)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				s.names = append(s.names, e.Name())
			}
		}
		return s
	}
	before := snap()
	for i := 0; i < 2; i++ {
		data, stamp, ok, err := st.Read("k")
		if err != nil || !ok || stamp != "s" || string(data) != "translated once" {
			t.Fatalf("read %d: data=%q stamp=%q ok=%v err=%v", i, data, stamp, ok, err)
		}
		after := snap()
		if !os.SameFile(before.index, after.index) || !after.index.ModTime().Equal(before.index.ModTime()) || after.blob != before.blob {
			t.Fatalf("read %d replaced the index: mtime %v -> %v, same file %v", i,
				before.index.ModTime(), after.index.ModTime(), os.SameFile(before.index, after.index))
		}
		if !after.dir.ModTime().Equal(before.dir.ModTime()) {
			t.Errorf("read %d created or renamed something in the cache directory: mtime %v -> %v", i, before.dir.ModTime(), after.dir.ModTime())
		}
		if strings.Join(after.names, " ") != strings.Join(before.names, " ") {
			t.Errorf("read %d changed the listing: %v -> %v", i, before.names, after.names)
		}
	}
	if n := reg.CounterValue(MetricCASHits); n != 2 {
		t.Errorf("hit counter = %d, want 2", n)
	}
}

// TestCASRecencyCrossesInstances: under a byte cap a hit is still written
// through, so a second store on the same directory (another process)
// evicts on it. This is what the uncapped fast path must not take away.
func TestCASRecencyCrossesInstances(t *testing.T) {
	dir := t.TempDir()
	reader, err := NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	writer, err := NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	// 102 bytes an entry, as in TestCASLRUEviction: the cap fits two.
	reader.SetMaxBytes(250)
	writer.SetMaxBytes(250)
	pay := func(c byte) []byte { return []byte(strings.Repeat(string(c), 100)) }
	for _, k := range []string{"a", "b"} {
		if err := writer.Write(k, "s", pay(k[0])); err != nil {
			t.Fatal(err)
		}
	}
	// a is the older write; reading it through the other instance makes
	// b the victim of the next write.
	if _, _, ok, _ := reader.Read("a"); !ok {
		t.Fatal("a missing before the recency test")
	}
	if err := writer.Write("c", "s", pay('c')); err != nil {
		t.Fatal(err)
	}
	keys, err := writer.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(keys, " "); got != "a c" {
		t.Errorf("keys after the capped write = %q, want \"a c\": the other instance's hit did not decide the victim", got)
	}
}

// TestCASCorruptObject: a bit-flipped object fails hash verification
// and reads as a miss — never as data.
func TestCASCorruptObject(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	st.SetTelemetry(reg)
	if err := st.Write("k", "s", []byte("precious bits")); err != nil {
		t.Fatal(err)
	}
	objs := casObjects(t, dir)
	if len(objs) != 1 {
		t.Fatal("expected one object")
	}
	path := filepath.Join(dir, "objects", objs[0])
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0x40
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	data, _, ok, err := st.Read("k")
	if err != nil || ok {
		t.Fatalf("corrupt read: data=%q ok=%v err=%v; want a clean miss", data, ok, err)
	}
	if n := reg.CounterValue(MetricCASCorrupt); n != 1 {
		t.Errorf("corrupt counter = %d, want 1", n)
	}
}

// TestCASReadOnlyDirectory: a cache directory the process may read but
// not write (the paper's pre-populated, offline-translated system cache)
// still serves its entries. The recency bump cannot be written back;
// that must not turn hash-verified data into an error.
func TestCASReadOnlyDirectory(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("file modes do not bind root")
	}
	dir := t.TempDir()
	st, err := NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	st.SetTelemetry(reg)
	if err := st.Write("k", "s", []byte("translated offline")); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755) // so TempDir's cleanup can remove it
	for i := 0; i < 2; i++ {
		data, stamp, ok, err := st.Read("k")
		if err != nil || !ok || stamp != "s" || string(data) != "translated offline" {
			t.Fatalf("read %d: data=%q stamp=%q ok=%v err=%v", i, data, stamp, ok, err)
		}
	}
	if n := reg.CounterValue(MetricCASHits); n != 2 {
		t.Errorf("hit counter = %d, want 2", n)
	}
	if err := st.Write("k2", "s", []byte("x")); err == nil {
		t.Error("write into a read-only directory reported success")
	}
}

// TestCASConcurrent: writers, readers and deleters race on one store
// under a byte cap; every read that succeeds must return untorn,
// key-matching content (run under -race via make race-cache).
func TestCASConcurrent(t *testing.T) {
	st, err := NewDirStorage(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.SetMaxBytes(4 * 1024)
	keys := []string{"k0", "k1", "k2", "k3", "k4", "k5"}
	pay := func(k string) string { return strings.Repeat(k, 256) }
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				k := keys[(g+i)%len(keys)]
				switch {
				case g%4 == 3 && i%10 == 9:
					if err := st.Delete(k); err != nil {
						t.Errorf("delete %s: %v", k, err)
					}
				case g%2 == 0:
					if err := st.Write(k, "s", []byte(pay(k))); err != nil {
						t.Errorf("write %s: %v", k, err)
					}
				default:
					data, stamp, ok, err := st.Read(k)
					if err != nil {
						t.Errorf("read %s: %v", k, err)
					}
					if ok && (stamp != "s" || string(data) != pay(k)) {
						t.Errorf("read %s: torn or mismatched content (%d bytes)", k, len(data))
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCASDedupAcrossSystems: two Systems sharing one cache directory
// through separate store instances translate the same module; the
// second write-back finds the first one's object and dedups instead of
// writing a second copy.
func TestCASDedupAcrossSystems(t *testing.T) {
	dir := t.TempDir()
	stA, err := NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	regB := telemetry.New()
	stB.SetTelemetry(regB)

	// A write-back holds exactly the demanded translations, and
	// translation is deterministic, so the two systems produce
	// byte-identical cache payloads.
	sysA := NewSystem(WithStorage(stA))
	sysB := NewSystem(WithStorage(stB))
	defer sysA.Close()
	defer sysB.Close()

	var outA, outB strings.Builder
	// Both sessions exist before either runs, so both start cold and
	// both write back.
	sessA, err := sysA.NewSession(compileTest(t), target.VX86, &outA)
	if err != nil {
		t.Fatal(err)
	}
	sessB, err := sysB.NewSession(compileTest(t), target.VX86, &outB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sessA.Run(context.Background(), "main"); err != nil {
		t.Fatalf("system A run: %v", err)
	}
	if _, err := sessB.Run(context.Background(), "main"); err != nil {
		t.Fatalf("system B run: %v", err)
	}
	if outA.String() != "328350\n" || outB.String() != outA.String() {
		t.Fatalf("outputs differ: %q vs %q", outA.String(), outB.String())
	}
	if n := regB.CounterValue(MetricCASDedups); n < 1 {
		t.Errorf("system B dedup counter = %d, want >= 1", n)
	}
	if n := len(casObjects(t, dir)); n != 1 {
		t.Errorf("shared directory holds %d objects, want 1", n)
	}
}

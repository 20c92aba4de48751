package llee

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"llva/internal/codegen"
	"llva/internal/core"
	"llva/internal/minic"
	"llva/internal/obj"
	"llva/internal/prof"
	"llva/internal/target"
	"llva/internal/telemetry"
)

// cacheKeyStamp computes the storage key and content stamp a System
// would use for m on d, so tests can plant blobs BEFORE construction
// (the cache is read once, when the module state is created).
func cacheKeyStamp(t *testing.T, m *core.Module, d *target.Desc) (string, string) {
	t.Helper()
	enc, err := obj.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	return "native:" + m.Name + ":" + d.Name, Stamp(enc)
}

const chainProg = `
int leaf(int x) { return x * 3 + 1; }
int mid(int x) { return leaf(x) + x; }
int top(int x) { return mid(x) - 2; }
int main() {
	print_int(top(10)); print_nl();
	return 0;
}
`

// TestCorruptCacheFallsBackToJIT: whatever sits where a cached
// translation or a guest profile should be and is not one (garbage
// under a valid stamp, a gob encoding of the object, a blob of the codec
// version before this one, a flat <key>.llvacache file beside the CAS, a
// profile of a format version this build does not read, the last one
// included) must be treated as
// a miss and replaced by online translation at tier 1, never run and never
// an execution failure. So must a blob that is one, stamp and framing valid,
// and would take the loader down: a relocation that patches outside its
// function's code or is of a kind the loader does not know rejects the
// blob, and one that names a symbol the module lacks costs that function's
// record alone. Blobs the store did return are counted as corrupt and
// evicted; files the store does not own are left alone; and a record that
// is merely redundant (a duplicate, a function the module does not have)
// is not corruption at all.
func TestCorruptCacheFallsBackToJIT(t *testing.T) {
	m := compileTest(t)
	key, stamp := cacheKeyStamp(t, m, target.VX86)
	var gobBlob bytes.Buffer
	if err := gob.NewEncoder(&gobBlob).Encode(sampleCachedObject()); err != nil {
		t.Fatal(err)
	}
	stray := encodeKey(key) + ".llvacache"
	profKey := "guestprof:" + m.Name + ":" + target.VX86.Name
	// A profile of another format version: version 1 held sampled block
	// counts where this build's profiles hold exact entries, version 2
	// counted them by native-code extent where this build's count them by
	// LLVA block, and version 3 carried the sampler's aggregate, which
	// this build's profiles do not store.
	profOf := func(version int) []byte {
		blob, err := (&prof.Artifact{Version: version, Module: m.Name, Target: target.VX86.Name}).Encode()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	planted := func(key string, blob []byte) func(*testing.T) Storage {
		return func(t *testing.T) Storage {
			// The real key with the real stamp, so only the decode step
			// can reject the blob.
			st := NewMemStorage()
			if err := st.Write(key, stamp, blob); err != nil {
				t.Fatal(err)
			}
			return st
		}
	}
	// tampered is the module's real translation with one edit, under the
	// real key and stamp. call is main's call of work, the relocation the
	// hostile edits go for.
	tampered := func(edit func(co *cachedObject, main *codegen.NativeFunc, call *target.Reloc)) func(*testing.T) Storage {
		nobj := translateModule(t, m, target.VX86)
		co := &cachedObject{TargetName: target.VX86.Name, Module: m.Name, Funcs: tier1Records(nobj.Funcs)}
		main := nobj.Func("main")
		for i := range main.Relocs {
			if main.Relocs[i].Sym == "work" {
				edit(co, main, &main.Relocs[i])
				return planted(key, encodeCachedObject(co))
			}
		}
		t.Fatal("main has no relocation against work")
		return nil
	}
	// Records of older codec versions: version 1 had no profile tags and
	// version 2 no block tables.
	v1 := encodeCachedObject(sampleCachedObject())
	v1[len(codecMagic)] = 1
	v2 := encodeCachedObject(sampleCachedObject())
	v2[len(codecMagic)] = 2
	cases := []struct {
		name    string
		storage func(t *testing.T) Storage
		corrupt uint64
		hit     bool   // the entry is a hit all the same: no miss, no eviction
		jit     uint64 // functions translated online: those the run calls that the table lacks
	}{
		{"garbage", planted(key, []byte("\x00not a cache blob")), 1, false, 2},
		{"gob blob", planted(key, gobBlob.Bytes()), 1, false, 2},
		{"codec version 1", planted(key, v1), 1, false, 2},
		{"codec version 2", planted(key, v2), 1, false, 2},
		{"guestprof garbage", planted(profKey, []byte("not a profile")), 1, false, 2},
		{"guestprof version 1", planted(profKey, profOf(1)), 1, false, 2},
		{"guestprof version 2", planted(profKey, profOf(2)), 1, false, 2},
		{"guestprof version 3", planted(profKey, profOf(3)), 1, false, 2},
		{"guestprof wrong version", planted(profKey, profOf(prof.ArtifactVersion+1)), 1, false, 2},
		{"stray flat file", func(t *testing.T) Storage {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, stray), []byte(stamp+"\nlegacy code"), 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := NewDirStorage(dir)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				blob, err := os.ReadFile(filepath.Join(dir, stray))
				if err != nil || string(blob) != stamp+"\nlegacy code" {
					t.Errorf("stray file touched: %q, %v", blob, err)
				}
			})
			return st
		}, 0, false, 2},
		{"reloc past its code", tampered(func(co *cachedObject, main *codegen.NativeFunc, call *target.Reloc) {
			call.Offset = uint32(len(main.Code)) - 2
		}), 1, false, 2},
		{"reloc of unknown kind", tampered(func(co *cachedObject, main *codegen.NativeFunc, call *target.Reloc) {
			call.Kind = target.RelocKind(len(relocWidth))
		}), 1, false, 2},
		{"reloc names no symbol", tampered(func(co *cachedObject, main *codegen.NativeFunc, call *target.Reloc) {
			call.Sym = "no_such_function"
		}), 1, true, 1},
		{"duplicated record", tampered(func(co *cachedObject, main *codegen.NativeFunc, call *target.Reloc) {
			co.Funcs = append(co.Funcs, co.Funcs[0])
		}), 0, true, 0},
		{"record of no module function", tampered(func(co *cachedObject, main *codegen.NativeFunc, call *target.Reloc) {
			ghost := *co.Funcs[0].NativeFunc
			ghost.Name = "ghost"
			co.Funcs = append(co.Funcs, cachedFunc{&ghost, ""})
		}), 0, true, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st := c.storage(t)
			reg := telemetry.New()
			sys := NewSystem(WithStorage(st), WithTelemetry(reg), WithTier2(true))
			var out strings.Builder
			sess, err := sys.NewSession(m, target.VX86, &out)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Run(context.Background(), "main"); err != nil {
				t.Fatalf("run with corrupt cache: %v", err)
			}
			if out.String() != "328350\n" {
				t.Errorf("output = %q", out.String())
			}
			if sess.CacheHit() != c.hit {
				t.Errorf("CacheHit = %v, want %v", sess.CacheHit(), c.hit)
			}
			if got := reg.CounterValue(MetricTranslations); got != c.jit {
				t.Errorf("%s = %d, want %d", MetricTranslations, got, c.jit)
			}
			var misses, evictions uint64
			if !c.hit {
				misses, evictions = 1, c.corrupt
			}
			if got := reg.CounterValue(MetricCacheMisses); got != misses {
				t.Errorf("%s = %d, want %d", MetricCacheMisses, got, misses)
			}
			if got := reg.CounterValue(MetricCacheCorrupt); got != c.corrupt {
				t.Errorf("%s = %d, want %d", MetricCacheCorrupt, got, c.corrupt)
			}
			if got := reg.CounterValue(MetricCacheEvictions); got != evictions {
				t.Errorf("%s = %d, want %d", MetricCacheEvictions, got, evictions)
			}
			// The run's write-back must have put a valid blob under the key:
			// the next run is a clean warm hit with nothing left to
			// translate, and the key is listed once.
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
			if keys, err := st.Keys(); err != nil || len(keys) != 1 || keys[0] != key {
				t.Errorf("Keys() = %v, %v; want [%s]", keys, err, key)
			}
			reg2 := telemetry.New()
			sys2 := NewSystem(WithStorage(st), WithTelemetry(reg2))
			var out2 strings.Builder
			sess2, err := sys2.NewSession(compileTest(t), target.VX86, &out2)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess2.Run(context.Background(), "main"); err != nil {
				t.Fatalf("warm run after corruption recovery: %v", err)
			}
			if !sess2.CacheHit() {
				t.Error("recovered cache entry missed")
			}
			if corrupt, tr := reg2.CounterValue(MetricCacheCorrupt), reg2.CounterValue(MetricTranslations); corrupt != 0 || tr != 0 {
				t.Errorf("run after recovery: %s = %d, %s = %d, want a clean and complete entry", MetricCacheCorrupt, corrupt, MetricTranslations, tr)
			}
			if out2.String() != out.String() {
				t.Errorf("outputs differ: %q vs %q", out2.String(), out.String())
			}
		})
	}
}

// TestStaleCacheEvicted: every kind of persisted artifact goes through
// the one stamped read, so for each of them an entry written against a
// different stamp is absent to the system, counted once, and deleted, not
// just ignored.
func TestStaleCacheEvicted(t *testing.T) {
	for _, kind := range []string{"native", "guestprof"} {
		t.Run(kind, func(t *testing.T) {
			m, err := minic.Compile("hot.c", hotProg)
			if err != nil {
				t.Fatal(err)
			}
			st := NewMemStorage()
			key := kind + ":" + m.Name + ":" + target.VX86.Name
			if err := st.Write(key, "stale-stamp", []byte("written against other object code")); err != nil {
				t.Fatal(err)
			}
			// Creating the session validates the entries: the stale blob
			// must be detected and evicted right there.
			reg := telemetry.New()
			sys := NewSystem(WithStorage(st), WithTelemetry(reg), WithTier2(true))
			defer sys.Close()
			sess, err := sys.NewSession(m, target.VX86, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if sess.CacheHit() || len(sess.ms.held) > 0 || sess.ms.plan.tr2 != nil {
				t.Error("stale entry was used")
			}
			if _, _, ok, _ := st.Read(key); ok {
				t.Error("stale blob survived the stamp mismatch")
			}
			if got := reg.CounterValue(MetricStampMismatches); got != 1 {
				t.Errorf("%s = %d, want 1", MetricStampMismatches, got)
			}
			if got := reg.CounterValue(MetricCacheEvictions); got != 1 {
				t.Errorf("%s = %d, want 1", MetricCacheEvictions, got)
			}
			if evs := reg.Events().Find(telemetry.EvStampMismatch); len(evs) != 1 || evs[0].Name != key {
				t.Errorf("StampMismatch events = %+v, want one for %s", evs, key)
			}
		})
	}
}

// faultStorage fails every Read of the given artifact kinds, the way a
// storage API implementation on a failing or unreachable device would.
type faultStorage struct {
	Storage
	kinds  []string
	faults uint64
}

func (f *faultStorage) Read(key string) ([]byte, string, bool, error) {
	for _, kind := range f.kinds {
		if strings.HasPrefix(key, kind+":") {
			f.faults++
			return nil, "", false, errors.New("injected read fault")
		}
	}
	return f.Storage.Read(key)
}

// TestStorageReadFaultIsMiss: the storage API is optional (paper, Section
// 4.1), so a read it fails costs what its absence would, a miss on that
// artifact, and never the session. Every kind of artifact is stored
// first, so every faulted read withholds data that was really there.
func TestStorageReadFaultIsMiss(t *testing.T) {
	run := func(sys *System) (*Session, string) {
		t.Helper()
		m, err := minic.Compile("hot.c", hotProg)
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		sess, err := sys.NewSession(m, target.VX86, &out)
		if err != nil {
			t.Fatalf("NewSession: %v", err)
		}
		if _, err := sess.Run(context.Background(), "main"); err != nil {
			t.Fatalf("run: %v", err)
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		return sess, out.String()
	}
	_, ref := run(NewSystem())

	full := NewMemStorage()
	seedGuestProfile(t, full, target.VX86)             // native, guestprof
	run(NewSystem(WithStorage(full), WithTier2(true))) // the hot records, at tier 2
	keys, err := full.Keys()
	if err != nil || len(keys) != 2 {
		t.Fatalf("seeded keys = %v, %v; want one of each of the two kinds", keys, err)
	}

	all := []string{"native", "guestprof"}
	cases := []struct {
		kinds  []string
		faults uint64
	}{
		{all[0:1], 1}, {all[1:2], 1}, {all, 2},
	}
	for _, c := range cases {
		t.Run(strings.Join(c.kinds, "+"), func(t *testing.T) {
			st := &faultStorage{Storage: NewMemStorage(), kinds: c.kinds}
			for _, k := range keys {
				data, stamp, _, _ := full.Read(k)
				if err := st.Write(k, stamp, data); err != nil {
					t.Fatal(err)
				}
			}
			reg := telemetry.New()
			sess, out := run(NewSystem(WithStorage(st), WithTelemetry(reg), WithTier2(true)))
			if out != ref {
				t.Errorf("output = %q, want %q as without storage", out, ref)
			}
			if st.faults != c.faults {
				t.Errorf("%d reads faulted, want %d", st.faults, c.faults)
			}
			if got := reg.CounterValue(MetricCacheReadErrors); got != st.faults {
				t.Errorf("%s = %d, want %d (one per faulted read)", MetricCacheReadErrors, got, st.faults)
			}
			if online := c.kinds[0] == "native"; sess.CacheHit() == online {
				t.Errorf("CacheHit = %v with reads of %v failing", sess.CacheHit(), c.kinds)
			}
			// A fault is not a verdict on the data: nothing is evicted.
			if got := reg.CounterValue(MetricCacheEvictions); got != 0 {
				t.Errorf("%s = %d, want 0", MetricCacheEvictions, got)
			}
		})
	}
}

// TestMergeForWriteBack: the write-back merge is the table itself. What
// a start read and what was translated since are the records of one
// table, which write-back writes as it stands: module function order,
// names that are not module functions dropped, all from the in-memory
// view, never re-reading storage; and when nothing was published since the
// last write, it writes nothing.
func TestMergeForWriteBack(t *testing.T) {
	m := compileTest(t) // defines work and main, in that order
	rec := func(name string, fill byte) entry {
		return entry{cachedFunc: cachedFunc{&codegen.NativeFunc{Name: name, Code: []byte{fill, fill}}, ""}}
	}
	table := map[string]entry{
		"main":  rec("main", 3),  // translated since the start
		"work":  rec("work", 1),  // read by the start
		"ghost": rec("ghost", 4), // not a module function: dropped
	}
	st := NewMemStorage()
	ms := &moduleState{sys: NewSystem(WithStorage(st)), module: m, desc: target.VX86, stamp: "s", held: table, unwritten: true}
	if err := ms.writeBack(); err != nil {
		t.Fatal(err)
	}
	data, _, ok, err := st.Read(ms.key("native"))
	if err != nil || !ok {
		t.Fatalf("the entry writeBack wrote: ok=%v err=%v", ok, err)
	}
	co, err := decodeCachedObject(data)
	if err != nil {
		t.Fatal(err)
	}
	if f := co.Funcs; len(f) != 2 || f[0].Name != "work" || f[0].Code[0] != 1 || f[1].Name != "main" || f[1].Code[0] != 3 {
		t.Errorf("written entry = %+v, want work:1 main:3, in module order", f)
	}
	if err := st.Delete(ms.key("native")); err != nil {
		t.Fatal(err)
	}
	if err := ms.writeBack(); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, _ := st.Read(ms.key("native")); ok {
		t.Error("a write-back with nothing published since the last one wrote the entry again")
	}
}

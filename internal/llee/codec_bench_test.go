package llee

import (
	"testing"

	"llva/internal/codegen"
	"llva/internal/target"
	"llva/internal/workloads"
)

// benchCachedObject is a realistic payload: the full translation of a
// multi-function workload, exactly what readObject and store handle.
func benchCachedObject(b *testing.B) *cachedObject {
	b.Helper()
	w := workloads.ByName("bc")
	m, err := w.CompileOptimized()
	if err != nil {
		b.Fatal(err)
	}
	tr, err := codegen.New(target.VX86, m)
	if err != nil {
		b.Fatal(err)
	}
	nobj, err := tr.TranslateModule()
	if err != nil {
		b.Fatal(err)
	}
	return &cachedObject{TargetName: "vx86", Module: m.Name, Funcs: tier1Records(nobj.Funcs)}
}

// BenchmarkCacheCodec prices the binary codec on the hot cache
// read/write path.
func BenchmarkCacheCodec(b *testing.B) {
	co := benchCachedObject(b)
	bin := encodeCachedObject(co)
	b.Run("encode/binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			encodeCachedObject(co)
		}
		b.SetBytes(int64(len(bin)))
	})
	b.Run("decode/binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decodeCachedObject(bin); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(bin)))
	})
}

// BenchmarkCacheCodecRoundTrip measures the full write-side-plus-read-side
// path a warm cache hit pays: encode on one end, decode on the other.
// allocs/op is the guarded number — decode is zero-copy (views into the
// blob) and encode is a single exact-size buffer, so the steady state
// should stay within a handful of allocations.
func BenchmarkCacheCodecRoundTrip(b *testing.B) {
	co := benchCachedObject(b)
	bin := encodeCachedObject(co)
	b.ReportAllocs()
	b.SetBytes(int64(len(bin)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob := encodeCachedObject(co)
		if _, err := decodeCachedObject(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCASRead prices one CASStorage.Read of a 30 KB object (a
// mid-sized workload's translation) in a directory under b.TempDir():
// a hit loads the index, reads and rehashes the object, and durably
// rewrites the whole index to bump one LRU sequence number; a miss only
// loads the index. The gap between the two, less the object read and the
// hash, is what a read that did not write would save on every warm start
// (ROADMAP, "CAS reads that do not write"). The numbers depend on the
// filesystem behind TMPDIR; EXPERIMENTS.md records ext4 and tmpfs.
func BenchmarkCASRead(b *testing.B) {
	st, err := NewDirStorage(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 30<<10)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	if err := st.Write("native:prog:vx86", "stamp", payload); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name, key string
		ok        bool
	}{{"hit", "native:prog:vx86", true}, {"miss", "native:other:vx86", false}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, ok, err := st.Read(c.key); err != nil || ok != c.ok {
					b.Fatalf("read: ok=%v err=%v", ok, err)
				}
			}
		})
	}
}

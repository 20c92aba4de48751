package llee

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"llva/internal/codegen"
	"llva/internal/target"
)

// The translation-cache codec: the one format of a cached native object,
// one record per function, each carrying the stamp of the guest profile
// that guided its translation (empty, one byte, for tier-1 code) and the
// code's block table (empty for tier-2 code). Cached objects are hot on
// every start (read on the warm path, written on every cold run), so the
// format is a hand-rolled length-prefixed binary one: no reflection, no
// per-blob type dictionary (BenchmarkCacheCodec). It is versioned by a
// magic header; a blob without the magic, or with a version this build
// does not write, is corrupt, which the caller treats as a miss.
//
// Allocation discipline (DESIGN.md §13): encoding sizes the output
// exactly (one allocation per blob, no append regrowth), and decoding
// aliases the input — function code, block tables and symbol names are
// views into the storage blob, never copied out. The caller owns the blob
// it passes to decodeCachedObject and must not mutate it afterwards;
// InstallCode honors that by patching relocations in machine memory, not
// in NativeFunc.Code.

// codecMagic tags binary-codec cache blobs; the byte after it is the
// format version.
var codecMagic = []byte("LLVC")

// Version 3 added the block table; version 2 records are corrupt to this
// build, like version 1's.
const codecVersion = 3

// relocWidth is how many bytes target.Desc.Patch writes for each relocation
// kind; a kind beyond it is one Patch does not know.
var relocWidth = [...]uint64{
	target.RelocAbs:    8,
	target.RelocCall:   4,
	target.RelocExt:    4,
	target.RelocHi16:   2,
	target.RelocLo16:   2,
	target.RelocDisp32: 4,
}

// errCorruptCache marks a cache blob that exists but cannot be decoded.
// Callers treat it as a miss (fall back to the JIT, paper Section 4.1)
// rather than an execution failure, but record it via telemetry.
var errCorruptCache = errors.New("corrupt cached translation")

// encodedSize computes the exact byte length encodeCachedObject will
// produce, so the output buffer is allocated once at final size.
func encodedSize(co *cachedObject) int {
	n := len(codecMagic) + 1
	n += uvarintLen(uint64(len(co.TargetName))) + len(co.TargetName)
	n += uvarintLen(uint64(len(co.Module))) + len(co.Module)
	n += uvarintLen(uint64(len(co.Funcs)))
	for _, f := range co.Funcs {
		n += uvarintLen(uint64(len(f.Name))) + len(f.Name)
		n += uvarintLen(uint64(len(f.profile))) + len(f.profile)
		n += uvarintLen(uint64(len(f.Code))) + len(f.Code)
		n += uvarintLen(uint64(len(f.Relocs)))
		for _, r := range f.Relocs {
			n += uvarintLen(uint64(r.Offset)) + 1
			n += uvarintLen(uint64(len(r.Sym))) + len(r.Sym)
		}
		n += uvarintLen(uint64(f.NumInstrs))
		n += uvarintLen(uint64(f.NumLLVA))
		n += uvarintLen(uint64(len(f.Blocks))) + len(f.Blocks)
	}
	return n
}

// uvarintLen is the encoded length of v as a binary uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func encodeCachedObject(co *cachedObject) []byte {
	buf := make([]byte, 0, encodedSize(co))
	buf = append(buf, codecMagic...)
	buf = append(buf, codecVersion)
	buf = appendString(buf, co.TargetName)
	buf = appendString(buf, co.Module)
	buf = binary.AppendUvarint(buf, uint64(len(co.Funcs)))
	for _, f := range co.Funcs {
		buf = appendString(buf, f.Name)
		buf = appendString(buf, f.profile)
		buf = binary.AppendUvarint(buf, uint64(len(f.Code)))
		buf = append(buf, f.Code...)
		buf = binary.AppendUvarint(buf, uint64(len(f.Relocs)))
		for _, r := range f.Relocs {
			buf = binary.AppendUvarint(buf, uint64(r.Offset))
			buf = append(buf, byte(r.Kind))
			buf = appendString(buf, r.Sym)
		}
		buf = binary.AppendUvarint(buf, uint64(f.NumInstrs))
		buf = binary.AppendUvarint(buf, uint64(f.NumLLVA))
		buf = binary.AppendUvarint(buf, uint64(len(f.Blocks)))
		buf = append(buf, f.Blocks...)
	}
	return buf
}

// codecReaderPool recycles the decode cursors; decodeCachedObject is on
// the warm-start path of every session and must not allocate scratch.
var codecReaderPool = sync.Pool{New: func() any { return new(codecReader) }}

func decodeCachedObject(data []byte) (*cachedObject, error) {
	if !bytes.HasPrefix(data, codecMagic) {
		return nil, fmt.Errorf("%w: no codec magic", errCorruptCache)
	}
	d := codecReaderPool.Get().(*codecReader)
	defer func() {
		d.buf, d.err = nil, nil
		codecReaderPool.Put(d)
	}()
	d.buf = data[len(codecMagic):]
	if v := d.byte(); v != codecVersion {
		return nil, fmt.Errorf("%w: unknown cache codec version %d", errCorruptCache, v)
	}
	co := &cachedObject{}
	co.TargetName = d.string()
	co.Module = d.string()
	nf := d.uvarint()
	if max := uint64(len(d.buf)); nf > max {
		// A corrupt count cannot exceed one function per remaining byte;
		// bounding it keeps the preallocation below from trusting garbage.
		nf = max
	}
	co.Funcs = make([]cachedFunc, 0, nf)
	for i := uint64(0); i < nf && d.err == nil; i++ {
		f := &codegen.NativeFunc{}
		f.Name = d.string()
		profile := d.string()
		f.Code = d.bytes(d.uvarint())
		nr := d.uvarint()
		if max := uint64(len(d.buf)); nr > max {
			nr = max
		}
		if nr > 0 {
			f.Relocs = make([]target.Reloc, 0, nr)
		}
		for j := uint64(0); j < nr && d.err == nil; j++ {
			r := target.Reloc{Offset: uint32(d.uvarint()), Kind: target.RelocKind(d.byte()), Sym: d.string()}
			// What target.Desc.Patch would write must lie inside the code:
			// the loader patches without looking.
			if int(r.Kind) >= len(relocWidth) || uint64(r.Offset)+relocWidth[r.Kind] > uint64(len(f.Code)) {
				return nil, fmt.Errorf("%w: %%%s: relocation %d (kind %d at %d) outside %d bytes of code",
					errCorruptCache, f.Name, j, r.Kind, r.Offset, len(f.Code))
			}
			f.Relocs = append(f.Relocs, r)
		}
		f.NumInstrs = int(d.uvarint())
		f.NumLLVA = int(d.uvarint())
		f.Blocks = d.bytes(d.uvarint())
		if !f.Blocks.Valid(len(f.Code)) {
			return nil, fmt.Errorf("%w: %%%s: block table of %d bytes does not fit %d bytes of code",
				errCorruptCache, f.Name, len(f.Blocks), len(f.Code))
		}
		co.Funcs = append(co.Funcs, cachedFunc{f, profile})
	}
	if d.err != nil {
		return nil, fmt.Errorf("%w: %v", errCorruptCache, d.err)
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", errCorruptCache, len(d.buf))
	}
	return co, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// codecReader is a sticky-error cursor over a cache blob.
type codecReader struct {
	buf []byte
	err error
}

func (d *codecReader) fail() {
	if d.err == nil {
		d.err = errors.New("truncated blob")
	}
}

func (d *codecReader) byte() byte {
	if d.err != nil || len(d.buf) < 1 {
		d.fail()
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *codecReader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// bytes returns the next n bytes as a view of the blob (zero copy: the
// decoded object aliases the caller's data).
func (d *codecReader) bytes(n uint64) []byte {
	if d.err != nil || n == 0 {
		return nil
	}
	if uint64(len(d.buf)) < n {
		d.fail()
		return nil
	}
	out := d.buf[:n:n]
	d.buf = d.buf[n:]
	return out
}

func (d *codecReader) string() string {
	return string(d.bytes(d.uvarint()))
}

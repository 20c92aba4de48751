package llee

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"llva/internal/codegen"
	"llva/internal/target"
)

func sampleCachedObject() *cachedObject {
	return &cachedObject{
		TargetName: "vx86",
		Module:     "m",
		Funcs: []*codegen.NativeFunc{
			{
				Name: "main",
				Code: []byte{1, 2, 3, 4, 5},
				Relocs: []target.Reloc{
					{Offset: 1, Kind: target.RelocCall, Sym: "callee"},
					{Offset: 9, Kind: target.RelocExt, Sym: "print_int"},
				},
				NumInstrs: 7,
				NumLLVA:   3,
			},
			{Name: "empty"}, // no code, no relocs
			{Name: "leaf", Code: bytes.Repeat([]byte{0xAB}, 300), NumInstrs: 150, NumLLVA: 50},
		},
	}
}

func TestCacheCodecRoundTrip(t *testing.T) {
	co := sampleCachedObject()
	blob := encodeCachedObject(co)
	if !bytes.HasPrefix(blob, codecMagic) {
		t.Fatal("encoded blob is missing the codec magic")
	}
	got, err := decodeCachedObject(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(co, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, co)
	}
}

func TestCacheCodecCorrupt(t *testing.T) {
	co := sampleCachedObject()
	blob := encodeCachedObject(co)
	cases := map[string][]byte{
		"empty":       {},
		"garbage":     []byte("not a cache blob at all"),
		"bad version": append(append([]byte{}, codecMagic...), 99),
		"truncated":   blob[:len(blob)/2],
		"trailing":    append(append([]byte{}, blob...), 0xFF),
	}
	for name, data := range cases {
		if _, err := decodeCachedObject(data); !errors.Is(err, errCorruptCache) {
			t.Errorf("%s: err = %v, want errCorruptCache", name, err)
		}
	}
}

func TestCacheCodecEmptyObject(t *testing.T) {
	co := &cachedObject{TargetName: "vsparc", Module: "empty"}
	got, err := decodeCachedObject(encodeCachedObject(co))
	if err != nil {
		t.Fatal(err)
	}
	if got.TargetName != "vsparc" || got.Module != "empty" || len(got.Funcs) != 0 {
		t.Errorf("empty object round trip: %+v", got)
	}
}

package target

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeFrom feeds DecodeFrom arbitrary bytes on either target. It
// must never panic, every refusal must be a *DecodeError, and an
// accepted instruction must be 2 to 16 bytes long and encode back to
// exactly the bytes it was decoded from. The seeds are the round-trip
// suite's encodings and TestDecodeTruncated's bad rows; testdata holds
// more the fuzzer found.
//
//	go test -run '^$' -fuzz FuzzDecodeFrom -fuzztime 20s ./internal/target
func FuzzDecodeFrom(f *testing.F) {
	for _, d := range []*Desc{VX86, VSPARC} {
		sparc := d == VSPARC
		for _, cs := range roundTripCases(d) {
			for _, c := range cs {
				in := none(c)
				code, _ := d.Encode(&in, nil)
				f.Add(code, sparc)
			}
		}
		for _, c := range symbolCases(d) {
			in := none(c.in)
			code, _ := d.Encode(&in, nil)
			f.Add(code, sparc)
		}
		for _, bad := range badEncodings(d) {
			f.Add(bad.b, sparc)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte, sparc bool) {
		d := VX86
		if sparc {
			d = VSPARC
		}
		var in MInstr
		n, err := d.DecodeFrom(b, 0, &in)
		if err != nil {
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("%s: % x: %T %v, want a *DecodeError", d.Name, b, err, err)
			}
			return
		}
		if n < 2 || n > 16 || n > len(b) {
			t.Fatalf("%s: % x decoded to %s, %d bytes", d.Name, b, &in, n)
		}
		if code, _ := d.Encode(&in, nil); !bytes.Equal(code, b[:n]) {
			t.Fatalf("%s: % x decoded to %s, which encodes to % x", d.Name, b[:n], &in, code)
		}
	})
}

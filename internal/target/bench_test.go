package target

import "testing"

// BenchmarkEncodeDecode prices the instruction codec on both targets:
// Encode is what the translator's emit pass pays per native instruction,
// DecodeFrom what the processor's predecoder pays once per instruction of
// a block it builds. The input is the round-trip suite's instructions,
// every opcode in every operand shape; ns/instr is the figure to read.
//
//	go test -run '^$' -bench EncodeDecode -benchtime 2000x -count 5 ./internal/target
func BenchmarkEncodeDecode(b *testing.B) {
	for _, d := range []*Desc{VX86, VSPARC} {
		var instrs []MInstr
		cases := roundTripCases(d)
		for op := MOp(0); op < mOpCount; op++ {
			for _, c := range cases[op] {
				instrs = append(instrs, none(c))
			}
		}
		var code []byte
		for i := range instrs {
			code, _ = d.Encode(&instrs[i], code)
		}
		perInstr := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(instrs)), "ns/instr")
		}
		b.Run(d.Name+"/encode", func(b *testing.B) {
			buf := make([]byte, 0, len(code))
			for i := 0; i < b.N; i++ {
				buf = buf[:0]
				for j := range instrs {
					buf, _ = d.Encode(&instrs[j], buf)
				}
			}
			perInstr(b)
		})
		b.Run(d.Name+"/decode", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for pos := 0; pos < len(code); {
					_, n, err := d.DecodeFrom(code, pos)
					if err != nil {
						b.Fatal(err)
					}
					pos += n
				}
			}
			perInstr(b)
		})
	}
}

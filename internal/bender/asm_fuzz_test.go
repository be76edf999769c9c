package bender_test

import (
	"reflect"
	"testing"

	"github.com/safari-repro/hbmrh/internal/bender"
	"github.com/safari-repro/hbmrh/internal/config"
)

// FuzzBenderAsm fuzzes the assembler, which reads program text from files
// (cmd/benderasm). Any input must assemble or fail with an error, never
// panic, and an accepted program must reach a fixpoint at once: its
// disassembly reassembles to an equal program whose disassembly is the
// same text. `go test` exercises the seed corpus in
// testdata/fuzz/FuzzBenderAsm; `go test -fuzz=FuzzBenderAsm
// ./internal/bender` digs.
func FuzzBenderAsm(f *testing.F) {
	g := config.SmallChip().Geometry
	f.Fuzz(func(t *testing.T, src string) {
		p1, err := bender.Assemble(src, g)
		if err != nil {
			return
		}
		text1 := bender.Disassemble(p1)
		p2, err := bender.Assemble(text1, g)
		if err != nil {
			t.Fatalf("disassembly does not reassemble: %v\n%s", err, text1)
		}
		if text2 := bender.Disassemble(p2); text2 != text1 {
			t.Fatalf("disassembly is not a fixpoint:\n%s\nthen\n%s", text1, text2)
		}
		if !reflect.DeepEqual(p1, p2) {
			t.Fatalf("reassembled program differs:\n%+v\nvs\n%+v", p1, p2)
		}
	})
}

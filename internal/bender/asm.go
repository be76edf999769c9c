package bender

import (
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"github.com/safari-repro/hbmrh/internal/addr"
)

// Assemble parses the textual program format into a Program and validates
// it against the geometry. The format is one instruction per line:
//
//	act  <ch> <pc> <bank> <row>
//	pre  <ch> <pc> <bank>
//	prea <ch> <pc>
//	rd   <ch> <pc> <bank> <col>
//	wr   <ch> <pc> <bank> <col> fill <hexbyte>
//	wr   <ch> <pc> <bank> <col> hex  <hexbytes>
//	wrrow <ch> <pc> <bank> fill <hexbyte>
//	wrrow <ch> <pc> <bank> hex  <hexbytes>
//	ref  <ch> <pc>
//	mrs  <ch> <reg> <value>    (value 0..2^32-1)
//	wait <picoseconds>
//	loop <count>
//	endloop
//	end
//
// A payload is one column: fill repeats one byte, hex spells every byte.
// Integers take Go syntax (decimal, 0x, 0o, 0b). Blank lines and lines
// starting with '#' or ';' are ignored, as is anything after '#' or ';' on
// a line.
func Assemble(src string, g addr.Geometry) (*Program, error) {
	p := &Program{}
	dataIndex := make(map[string]int)
	intern := func(payload []byte) int {
		key := string(payload)
		if idx, ok := dataIndex[key]; ok {
			return idx
		}
		idx := len(p.Data)
		p.Data = append(p.Data, payload)
		dataIndex[key] = idx
		return idx
	}

	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexAny(line, "#;"); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		fail := func(f string, args ...any) error {
			return fmt.Errorf("bender: line %d: %s", lineNo+1, fmt.Sprintf(f, args...))
		}
		op := strings.ToLower(fields[0])
		args := fields[1:]
		n, err := parseInts(args)
		if err != nil && op != "wr" && op != "wrrow" {
			return nil, fail("%v", err)
		}
		switch op {
		case "act":
			if len(n) != 4 {
				return nil, fail("act needs ch pc bank row")
			}
			p.Instrs = append(p.Instrs, Instr{Op: OpAct, Ch: int(n[0]), PC: int(n[1]), Bank: int(n[2]), Row: int(n[3])})
		case "pre":
			if len(n) != 3 {
				return nil, fail("pre needs ch pc bank")
			}
			p.Instrs = append(p.Instrs, Instr{Op: OpPre, Ch: int(n[0]), PC: int(n[1]), Bank: int(n[2])})
		case "prea":
			if len(n) != 2 {
				return nil, fail("prea needs ch pc")
			}
			p.Instrs = append(p.Instrs, Instr{Op: OpPreA, Ch: int(n[0]), PC: int(n[1])})
		case "rd":
			if len(n) != 4 {
				return nil, fail("rd needs ch pc bank col")
			}
			p.Instrs = append(p.Instrs, Instr{Op: OpRd, Ch: int(n[0]), PC: int(n[1]), Bank: int(n[2]), Col: int(n[3])})
		case "wr", "wrrow":
			head, operands := 4, "ch pc bank col"
			if op == "wrrow" {
				head, operands = 3, "ch pc bank"
			}
			if len(args) != head+2 {
				return nil, fail("%s needs %s (fill|hex) payload", op, operands)
			}
			hd, err := parseInts(args[:head])
			if err != nil {
				return nil, fail("%v", err)
			}
			payload, err := parsePayload(args[head], args[head+1], g.ColumnBytes)
			if err != nil {
				return nil, fail("%v", err)
			}
			in := Instr{Op: OpWrRow, Ch: int(hd[0]), PC: int(hd[1]), Bank: int(hd[2]), Data: intern(payload)}
			if op == "wr" {
				in.Op, in.Col = OpWr, int(hd[3])
			}
			p.Instrs = append(p.Instrs, in)
		case "ref":
			if len(n) != 2 {
				return nil, fail("ref needs ch pc")
			}
			p.Instrs = append(p.Instrs, Instr{Op: OpRef, Ch: int(n[0]), PC: int(n[1])})
		case "mrs":
			if len(n) != 3 {
				return nil, fail("mrs needs ch reg value")
			}
			p.Instrs = append(p.Instrs, Instr{Op: OpMRS, Ch: int(n[0]), Row: int(n[1]), Arg: n[2]})
		case "wait":
			if len(n) != 1 {
				return nil, fail("wait needs picoseconds")
			}
			p.Instrs = append(p.Instrs, Instr{Op: OpWait, Arg: n[0]})
		case "loop":
			if len(n) != 1 {
				return nil, fail("loop needs a count")
			}
			p.Instrs = append(p.Instrs, Instr{Op: OpLoop, Arg: n[0]})
		case "endloop":
			if len(n) != 0 {
				return nil, fail("endloop takes no operands")
			}
			p.Instrs = append(p.Instrs, Instr{Op: OpEndLoop})
		case "end":
			if len(n) != 0 {
				return nil, fail("end takes no operands")
			}
			p.Instrs = append(p.Instrs, Instr{Op: OpEnd})
		default:
			return nil, fail("unknown instruction %q", op)
		}
	}
	if err := p.Validate(g); err != nil {
		return nil, err
	}
	return p, nil
}

func parseInts(fields []string) ([]int64, error) {
	out := make([]int64, 0, len(fields))
	for _, f := range fields {
		v, err := strconv.ParseInt(f, 0, 64)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

func parsePayload(mode, arg string, columnBytes int) ([]byte, error) {
	switch mode {
	case "fill":
		b, err := strconv.ParseUint(arg, 16, 8)
		if err != nil {
			return nil, fmt.Errorf("bad fill byte %q", arg)
		}
		payload := make([]byte, columnBytes)
		for i := range payload {
			payload[i] = byte(b)
		}
		return payload, nil
	case "hex":
		payload, err := hex.DecodeString(arg)
		if err != nil {
			return nil, fmt.Errorf("bad hex payload: %v", err)
		}
		if len(payload) != columnBytes {
			return nil, fmt.Errorf("payload is %d bytes, column holds %d", len(payload), columnBytes)
		}
		return payload, nil
	default:
		return nil, fmt.Errorf("payload mode %q, want fill or hex", mode)
	}
}

// Disassemble renders a program back into the assembler's text format.
// Assemble(Disassemble(p)) reproduces an equivalent program.
func Disassemble(p *Program) string {
	var sb strings.Builder
	indent := 0
	for _, in := range p.Instrs {
		if in.Op == OpEndLoop && indent > 0 {
			indent--
		}
		sb.WriteString(strings.Repeat("  ", indent))
		switch in.Op {
		case OpAct:
			fmt.Fprintf(&sb, "act %d %d %d %d\n", in.Ch, in.PC, in.Bank, in.Row)
		case OpPre:
			fmt.Fprintf(&sb, "pre %d %d %d\n", in.Ch, in.PC, in.Bank)
		case OpPreA:
			fmt.Fprintf(&sb, "prea %d %d\n", in.Ch, in.PC)
		case OpRd:
			fmt.Fprintf(&sb, "rd %d %d %d %d\n", in.Ch, in.PC, in.Bank, in.Col)
		case OpWr:
			fmt.Fprintf(&sb, "wr %d %d %d %d hex %s\n", in.Ch, in.PC, in.Bank, in.Col, hex.EncodeToString(p.Data[in.Data]))
		case OpWrRow:
			fmt.Fprintf(&sb, "wrrow %d %d %d hex %s\n", in.Ch, in.PC, in.Bank, hex.EncodeToString(p.Data[in.Data]))
		case OpRef:
			fmt.Fprintf(&sb, "ref %d %d\n", in.Ch, in.PC)
		case OpMRS:
			fmt.Fprintf(&sb, "mrs %d %d %#x\n", in.Ch, in.Row, uint32(in.Arg))
		case OpWait:
			fmt.Fprintf(&sb, "wait %d\n", in.Arg)
		case OpLoop:
			fmt.Fprintf(&sb, "loop %d\n", in.Arg)
			indent++
		case OpEndLoop:
			sb.WriteString("endloop\n")
		case OpEnd:
			sb.WriteString("end\n")
		}
	}
	return sb.String()
}

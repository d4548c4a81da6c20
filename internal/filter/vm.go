package filter

import (
	"fmt"
	"strings"

	"plexus/internal/mbuf"
	"plexus/internal/sim"
)

// The interpreted backend: filter expressions compiled to bytecode for a
// small stack machine. Executing a guard this way charges per-instruction
// simulated time, modelling the in-kernel interpreted-firewall alternative
// the paper mentions in §3.5 (Java, Tcl) and the classic packet-filter
// machines of [MRA87]. The ablation in internal/bench compares it with the
// native (typesafe compiled extension) backend.

// opcodeKind is a VM operation.
type opcodeKind int

// VM opcodes. Comparisons pop two values and push 0/1; a comparison whose
// field failed to extract yields 0.
const (
	opLoadField opcodeKind = iota // push field value; record validity
	opPush                        // push constant
	opCmp                         // pop b, a; push a OP b (invalid ⇒ 0)
	opTruth                       // pop a; push a != 0 (invalid ⇒ 0)
	opNot                         // pop a; push !a
	opPop                         // pop and discard
	opJzKeep                      // if top == 0, jump relative (keep top)
	opJnzKeep                     // if top != 0, jump relative (keep top)
)

// instr is one VM instruction.
type instr struct {
	op    opcodeKind
	field Field
	proto uint8
	cmp   Op
	val   uint32
	rel   int // jump offset (relative to next instruction)
}

// DefaultInstrCost is the simulated cost of one interpreted instruction —
// interpreter dispatch plus operand handling on the modelled 1995 CPU — charged
// per instruction a Program executes.
const DefaultInstrCost = 250 * sim.Nanosecond

// Program is a compiled filter for the VM backend.
type Program struct {
	base Base
	code []instr
}

// CompileInterpreted parses source text and compiles it to VM bytecode.
func CompileInterpreted(src string, base Base) (*Program, error) {
	root, err := parse(src)
	if err != nil {
		return nil, err
	}
	p := &Program{base: base}
	p.compile(root)
	return p, nil
}

// Len reports the program length in instructions.
func (p *Program) Len() int { return len(p.code) }

// String disassembles the program.
func (p *Program) String() string {
	var sb strings.Builder
	for i, in := range p.code {
		switch in.op {
		case opLoadField:
			fmt.Fprintf(&sb, "%3d  LOADF  f%d proto=%d\n", i, in.field, in.proto)
		case opPush:
			fmt.Fprintf(&sb, "%3d  PUSH   %d\n", i, in.val)
		case opCmp:
			if in.cmp == OpIn {
				fmt.Fprintf(&sb, "%3d  CMP    in mask=%08x\n", i, in.val)
			} else {
				fmt.Fprintf(&sb, "%3d  CMP    %s\n", i, in.cmp)
			}
		case opTruth:
			fmt.Fprintf(&sb, "%3d  TRUTH\n", i)
		case opNot:
			fmt.Fprintf(&sb, "%3d  NOT\n", i)
		case opPop:
			fmt.Fprintf(&sb, "%3d  POP\n", i)
		case opJzKeep:
			fmt.Fprintf(&sb, "%3d  JZK    +%d\n", i, in.rel)
		case opJnzKeep:
			fmt.Fprintf(&sb, "%3d  JNZK   +%d\n", i, in.rel)
		}
	}
	return sb.String()
}

// compile emits code for node n, leaving the boolean result (0/1) on the
// stack. Logical operators short-circuit with relative jumps.
func (p *Program) compile(n Node) {
	switch x := n.(type) {
	case *cmpNode:
		p.code = append(p.code,
			instr{op: opLoadField, field: x.field, proto: x.proto},
			instr{op: opPush, val: x.value},
			instr{op: opCmp, cmp: x.op},
		)
	case *inNode:
		// CIDR membership: the masked network is pushed as the comparand and
		// the prefix mask rides in the CMP instruction's val operand.
		p.code = append(p.code,
			instr{op: opLoadField, field: x.field, proto: x.proto},
			instr{op: opPush, val: x.value},
			instr{op: opCmp, cmp: OpIn, val: x.mask},
		)
	case *fieldTruth:
		p.code = append(p.code,
			instr{op: opLoadField, field: x.field, proto: x.proto},
			instr{op: opTruth},
		)
	case *notNode:
		p.compile(x.x)
		p.code = append(p.code, instr{op: opNot})
	case *boolNode:
		p.compile(x.l)
		jmp := len(p.code)
		if x.op == OpAnd {
			p.code = append(p.code, instr{op: opJzKeep})
		} else {
			p.code = append(p.code, instr{op: opJnzKeep})
		}
		p.code = append(p.code, instr{op: opPop})
		p.compile(x.r)
		p.code[jmp].rel = len(p.code) - (jmp + 1)
	default:
		panic(fmt.Sprintf("filter: unknown node type %T", n))
	}
}

// Run interprets the program against a packet, charging t per executed
// instruction (t may be nil in tests that only want the verdict).
func (p *Program) Run(t *sim.Task, m *mbuf.Mbuf) bool {
	return p.RunBytes(t, m.Bytes())
}

// RunBytes interprets the program against a raw packet buffer — the fabric
// plane's entry point, where packets are frames or header scratch.
func (p *Program) RunBytes(t *sim.Task, b []byte) bool {
	var stack [16]uint32
	sp := 0
	lastValid := true
	executed := 0
	for pc := 0; pc < len(p.code); pc++ {
		executed++
		in := p.code[pc]
		switch in.op {
		case opLoadField:
			v, ok := extractBytes(b, p.base, in.field, in.proto)
			lastValid = ok
			stack[sp] = v
			sp++
		case opPush:
			stack[sp] = in.val
			sp++
		case opCmp:
			b := stack[sp-1]
			a := stack[sp-2]
			sp -= 2
			r := uint32(0)
			if lastValid {
				switch in.cmp {
				case OpIn:
					if a&in.val == b {
						r = 1
					}
				case OpEq:
					if a == b {
						r = 1
					}
				case OpNe:
					if a != b {
						r = 1
					}
				case OpLt:
					if a < b {
						r = 1
					}
				case OpGt:
					if a > b {
						r = 1
					}
				case OpLe:
					if a <= b {
						r = 1
					}
				case OpGe:
					if a >= b {
						r = 1
					}
				}
			}
			stack[sp] = r
			sp++
		case opTruth:
			a := stack[sp-1]
			sp--
			r := uint32(0)
			if lastValid && a != 0 {
				r = 1
			}
			stack[sp] = r
			sp++
		case opNot:
			if stack[sp-1] == 0 {
				stack[sp-1] = 1
			} else {
				stack[sp-1] = 0
			}
		case opPop:
			sp--
		case opJzKeep:
			if stack[sp-1] == 0 {
				pc += in.rel
			}
		case opJnzKeep:
			if stack[sp-1] != 0 {
				pc += in.rel
			}
		}
	}
	if t != nil {
		t.Charge(sim.Time(executed) * DefaultInstrCost)
	}
	return sp > 0 && stack[sp-1] != 0
}

// Guard returns the program as an event.Guard charging interpreted costs.
func (p *Program) Guard() func(t *sim.Task, m *mbuf.Mbuf) bool {
	return func(t *sim.Task, m *mbuf.Mbuf) bool {
		return p.Run(t, m)
	}
}

package vm

import (
	"encoding/binary"
	"fmt"
)

// This file implements the contract-validation tooling the paper calls
// for in Section 5.3 ("there is a need to develop validation tools which
// can formally analyze smart contracts for bugs and incorrect behavior"):
// a static analyzer that checks SVM bytecode *before* it is committed to
// the chain, where incorrect contracts have financial consequences.

// IssueKind classifies a static finding.
type IssueKind string

// Static issue kinds.
const (
	IssueTruncated    IssueKind = "truncated-immediate"
	IssueUnknownOp    IssueKind = "unknown-opcode"
	IssueBadJump      IssueKind = "invalid-jump-target"
	IssueUnderflow    IssueKind = "stack-underflow"
	IssueNoTerminator IssueKind = "missing-terminator"
	IssueWriteOp      IssueKind = "state-write"
)

// Issue is one static finding, anchored at a bytecode offset.
type Issue struct {
	Kind   IssueKind `json:"kind"`
	Offset int       `json:"offset"`
	Detail string    `json:"detail"`
}

func (i Issue) String() string {
	return fmt.Sprintf("%s at %d: %s", i.Kind, i.Offset, i.Detail)
}

// Report is the analyzer's result.
type Report struct {
	// Instructions is the number of decoded instructions.
	Instructions int
	// Issues are the findings; an empty slice means the code passed.
	Issues []Issue
	// HasLoop reports a cycle in the control-flow graph.
	HasLoop bool
	// GasBound is a worst-case gas estimate for loop-free code
	// (0 when HasLoop: unbounded without runtime gas limits).
	GasBound uint64
	// Writes reports whether the code can modify state (SSTORE,
	// TRANSFER, LOG) — false means it is safe as a constant call.
	Writes bool
}

// OK reports whether no issues were found.
func (r *Report) OK() bool { return len(r.Issues) == 0 }

// instruction is one decoded operation.
type instruction struct {
	op     Op
	offset int
	next   int   // offset of the fallthrough instruction
	imm    *Word // immediate for PUSH/PUSHW
}

func terminates(op Op) bool {
	return op == STOP || op == RETURN || op == REVERT || op == JUMP
}

// Analyze statically checks bytecode: decodability, jump-target
// validity, guaranteed stack underflows on any reachable path,
// fall-off-the-end control flow, loops, and a worst-case gas bound for
// loop-free code. It is sound for code produced by Assemble (whose
// jumps are PUSH-immediate) and conservative otherwise: a jump whose
// target cannot be determined statically is reported as an issue.
func Analyze(code []byte) *Report {
	r := &Report{}
	if len(code) == 0 {
		r.Issues = append(r.Issues, Issue{Kind: IssueNoTerminator, Offset: 0, Detail: "empty code"})
		return r
	}

	// Pass 1: decode, recording instruction boundaries.
	instrs := make(map[int]*instruction)
	order := []int{}
	for pc := 0; pc < len(code); {
		op := Op(code[pc])
		in := &opTable[op]
		if in.name == "" {
			r.Issues = append(r.Issues, Issue{Kind: IssueUnknownOp, Offset: pc,
				Detail: fmt.Sprintf("opcode %d", code[pc])})
			return r
		}
		size := 1 + in.imm
		if pc+size > len(code) {
			r.Issues = append(r.Issues, Issue{Kind: IssueTruncated, Offset: pc,
				Detail: fmt.Sprintf("%s needs %d bytes", op, in.imm)})
			return r
		}
		ins := &instruction{op: op, offset: pc, next: pc + size}
		switch op {
		case PUSH:
			w := WordFromUint64(binary.BigEndian.Uint64(code[pc+1:]))
			ins.imm = &w
		case PUSHW:
			w := Word(code[pc+1 : pc+size])
			ins.imm = &w
		case SSTORE, TRANSFER, LOG:
			r.Writes = true
		}
		instrs[pc] = ins
		order = append(order, pc)
		pc += size
	}
	r.Instructions = len(order)

	// The final instruction must not fall off the end.
	last := instrs[order[len(order)-1]]
	if !terminates(last.op) && last.op != JUMPI {
		r.Issues = append(r.Issues, Issue{Kind: IssueNoTerminator, Offset: last.offset,
			Detail: fmt.Sprintf("code ends with %s", last.op)})
	} else if last.op == JUMPI {
		r.Issues = append(r.Issues, Issue{Kind: IssueNoTerminator, Offset: last.offset,
			Detail: "conditional jump can fall off the end"})
	}

	// Pass 2: abstract interpretation over (pc, depth) states. Jump
	// targets are resolvable when the jump is immediately preceded by a
	// PUSH (the assembler's only jump shape).
	type nodeState struct {
		pc    int
		depth int
	}
	seen := make(map[nodeState]bool)
	onPath := make(map[int]int) // pc → DFS mark for loop detection
	var maxGasFrom func(st nodeState, prevImm *Word) uint64

	const depthCap = maxStack
	maxGasFrom = func(st nodeState, prevImm *Word) uint64 {
		if seen[nodeState{pc: st.pc, depth: st.depth}] {
			// Revisiting the same abstract state: cycle.
			if onPath[st.pc] > 0 {
				r.HasLoop = true
			}
			return 0
		}
		seen[nodeState{pc: st.pc, depth: st.depth}] = true
		ins, ok := instrs[st.pc]
		if !ok {
			r.Issues = append(r.Issues, Issue{Kind: IssueBadJump, Offset: st.pc,
				Detail: "control flow reaches a non-instruction offset"})
			return 0
		}
		onPath[st.pc]++
		defer func() { onPath[st.pc]-- }()

		in := &opTable[ins.op]
		g := in.gas
		if st.depth < in.pops {
			r.Issues = append(r.Issues, Issue{Kind: IssueUnderflow, Offset: st.pc,
				Detail: fmt.Sprintf("%s needs %d operands, stack has %d", ins.op, in.pops, st.depth)})
			return g
		}
		depth := min(st.depth-in.pops+in.pushes, depthCap)

		switch ins.op {
		case STOP, RETURN, REVERT:
			return g
		case JUMP, JUMPI:
			var branch uint64
			if prevImm == nil {
				r.Issues = append(r.Issues, Issue{Kind: IssueBadJump, Offset: ins.offset,
					Detail: "jump target not statically known (no preceding PUSH)"})
			} else {
				target := int(prevImm.Uint64())
				if _, ok := instrs[target]; !ok {
					r.Issues = append(r.Issues, Issue{Kind: IssueBadJump, Offset: ins.offset,
						Detail: fmt.Sprintf("target %d is not an instruction boundary", target)})
				} else {
					branch = maxGasFrom(nodeState{pc: target, depth: depth}, nil)
				}
			}
			if ins.op == JUMP {
				return g + branch
			}
			// JUMPI: worst case of taken vs fallthrough.
			fall := uint64(0)
			if ins.next < len(code) {
				fall = maxGasFrom(nodeState{pc: ins.next, depth: depth}, nil)
			}
			return g + max(branch, fall)
		default:
			if ins.next >= len(code) {
				return g // terminator issue already reported
			}
			var imm *Word
			if ins.op == PUSH || ins.op == PUSHW {
				imm = ins.imm
			}
			return g + maxGasFrom(nodeState{pc: ins.next, depth: depth}, imm)
		}
	}
	bound := maxGasFrom(nodeState{pc: 0, depth: 0}, nil)
	if !r.HasLoop {
		r.GasBound = bound
	}
	return r
}

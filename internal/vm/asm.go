package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ErrAssemble reports an assembly-time failure.
var ErrAssemble = errors.New("vm: assembly error")

// Assemble translates SVM assembly into bytecode. Syntax, one statement
// per line:
//
//	; comment
//	label:              ; jump target
//	PUSH 42             ; decimal immediate (8 bytes)
//	PUSH @label         ; push a label's bytecode offset
//	JUMPI               ; plain opcodes
//
// Example — a counter whose invoke increments storage slot 0:
//
//	PUSH 0
//	PUSH 0
//	SLOAD      ; load slot 0
//	PUSH 1
//	ADD
//	SSTORE     ; slot0 = slot0 + 1
//	STOP
func Assemble(src string) ([]byte, error) {
	type fixup struct {
		offset int
		label  string
		line   int
	}
	var (
		code   []byte
		labels = make(map[string]uint64)
		fixups []fixup
	)
	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.Index(line, ";"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasSuffix(line, ":") {
			name := strings.TrimSuffix(line, ":")
			if _, dup := labels[name]; dup {
				return nil, fmt.Errorf("%w: line %d: duplicate label %q", ErrAssemble, lineNo+1, name)
			}
			labels[name] = uint64(len(code))
			continue
		}
		fields := strings.Fields(line)
		mnemonic := strings.ToUpper(fields[0])
		op, ok := opsByName[mnemonic]
		if !ok {
			return nil, fmt.Errorf("%w: line %d: unknown mnemonic %q", ErrAssemble, lineNo+1, fields[0])
		}
		code = append(code, byte(op))
		switch op {
		case PUSH:
			if len(fields) != 2 {
				return nil, fmt.Errorf("%w: line %d: PUSH needs one operand", ErrAssemble, lineNo+1)
			}
			var imm [8]byte
			if strings.HasPrefix(fields[1], "@") {
				fixups = append(fixups, fixup{offset: len(code), label: fields[1][1:], line: lineNo + 1})
			} else {
				v, err := strconv.ParseUint(fields[1], 0, 64)
				if err != nil {
					return nil, fmt.Errorf("%w: line %d: %v", ErrAssemble, lineNo+1, err)
				}
				binary.BigEndian.PutUint64(imm[:], v)
			}
			code = append(code, imm[:]...)
		case PUSHW:
			return nil, fmt.Errorf("%w: line %d: PUSHW has no textual form; use PUSH", ErrAssemble, lineNo+1)
		default:
			if len(fields) != 1 {
				return nil, fmt.Errorf("%w: line %d: %s takes no operand", ErrAssemble, lineNo+1, mnemonic)
			}
		}
	}
	for _, f := range fixups {
		target, ok := labels[f.label]
		if !ok {
			return nil, fmt.Errorf("%w: line %d: undefined label %q", ErrAssemble, f.line, f.label)
		}
		binary.BigEndian.PutUint64(code[f.offset:f.offset+8], target)
	}
	return code, nil
}

// opsByName inverts opTable's names, which are unique, for the
// assembler.
var opsByName = func() map[string]Op {
	m := make(map[string]Op)
	for op, in := range opTable {
		if in.name != "" {
			m[in.name] = Op(op)
		}
	}
	return m
}()

// MustAssemble panics on assembly failure; for package-level program
// constants in examples and tests.
func MustAssemble(src string) []byte {
	code, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return code
}

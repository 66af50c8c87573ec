package vm

import (
	"fmt"
	"testing"

	"dcsledger/internal/cryptoutil"
)

// loopContract is the benchmark's invoke contract with its iteration
// count as a parameter: it spins a counter to iterations, then stores it
// into the slot named by argument 0.
func loopContract(iterations int) []byte {
	return MustAssemble(fmt.Sprintf(`
	PUSH 0
loop:
	PUSH 1
	ADD
	DUP
	PUSH %d
	LT
	PUSH @loop
	JUMPI
	PUSH 0
	ARG
	SWAP
	SSTORE
	STOP
`, iterations))
}

// nopState is a StateAccess that allocates nothing, so that what an
// execution allocates is the VM's own.
type nopState struct{}

func (nopState) Storage(cryptoutil.Address, []byte) []byte     { return nil }
func (nopState) SetStorage(cryptoutil.Address, []byte, []byte) {}
func (nopState) Balance(cryptoutil.Address) uint64             { return 0 }
func (nopState) Debit(cryptoutil.Address, uint64) error        { return nil }
func (nopState) Credit(cryptoutil.Address, uint64)             {}

// loopEnv is an invoke of the loop contract as the benchmark sends it:
// one argument and a gas limit of 100,000.
func loopEnv() *Env {
	return &Env{State: nopState{}, Args: []Word{WordFromUint64(7)}, GasLimit: 100_000}
}

// TestExecuteAllocs is the allocation gate: an execution allocates a
// fixed few objects, however many instructions it runs. Through
// math/big, each loop iteration allocated four (808 at 200 iterations).
func TestExecuteAllocs(t *testing.T) {
	counts := map[int]float64{}
	for _, iterations := range []int{200, 2000} {
		code, env := loopContract(iterations), loopEnv()
		counts[iterations] = testing.AllocsPerRun(20, func() {
			if _, err := Execute(code, env); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d iterations: %.0f allocations an execution", iterations, counts[iterations])
	}
	if counts[200] != counts[2000] || counts[2000] > 8 {
		t.Fatalf("allocations at 200 and 2000 iterations: %.0f and %.0f, want equal and at most 8",
			counts[200], counts[2000])
	}
}

// BenchmarkExecuteLoop runs the benchmark's 200-iteration invoke
// contract over a state that allocates nothing.
func BenchmarkExecuteLoop(b *testing.B) {
	code, env := loopContract(200), loopEnv()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Execute(code, env); err != nil {
			b.Fatal(err)
		}
	}
}

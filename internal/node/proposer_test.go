package node

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"dcsledger/internal/consensus/forkchoice"
	"dcsledger/internal/contract"
	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/incentive"
	"dcsledger/internal/p2p"
	"dcsledger/internal/simclock"
	"dcsledger/internal/state"
	"dcsledger/internal/types"
	"dcsledger/internal/vm"
)

// logStoreSrc logs arg0 under topic 7 and stores 1 into slot arg0.
const logStoreSrc = `
	PUSH 0
	ARG
	DUP
	PUSH 7
	LOG
	PUSH 1
	SSTORE
	STOP
`

// countingExecutor counts Invoke calls per transaction. It is not
// forkable, so the parallel executor replays contract lanes serially and
// one block application runs each invoke exactly once at any width.
type countingExecutor struct {
	inner   *contract.Executor
	invokes map[cryptoutil.Hash]int
}

func newCountingExecutor() *countingExecutor {
	return &countingExecutor{
		inner:   contract.NewExecutor(contract.NewRegistry()),
		invokes: make(map[cryptoutil.Hash]int),
	}
}

func (c *countingExecutor) Deploy(st *state.State, tx *types.Transaction) (cryptoutil.Address, uint64, error) {
	return c.inner.Deploy(st, tx)
}

func (c *countingExecutor) Invoke(st *state.State, tx *types.Transaction) (uint64, error) {
	c.invokes[tx.ID()]++
	return c.inner.Invoke(st, tx)
}

func (c *countingExecutor) SetNow(now int64) { c.inner.SetNow(now) }

// soloNode is one peer on its own simulated clock: a miner proposes on
// its timer, a follower is fed blocks through HandleBlock.
func soloNode(t *testing.T, sim *simclock.Simulator, seed string, mine bool, ex state.Executor, workers, maxTxs int, alloc map[cryptoutil.Address]uint64) *Node {
	t.Helper()
	n, err := New(Config{
		ID:          p2p.NodeID(seed),
		Key:         cryptoutil.KeyFromSeed([]byte(seed)),
		Engine:      liteEngine(7),
		ForkChoice:  forkchoice.LongestChain{},
		Genesis:     NewGenesis("proposer-test"),
		Alloc:       alloc,
		Executor:    ex,
		Rewards:     incentive.Schedule{InitialReward: 50},
		Clock:       sim,
		Mine:        mine,
		MaxBlockTxs: maxTxs,
		ExecWorkers: workers,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return n
}

// mineTo runs the miner's clock until its chain is height high.
func mineTo(t *testing.T, sim *simclock.Simulator, n *Node, height uint64) {
	t.Helper()
	for i := 0; n.Chain().Height() < height; i++ {
		if i == 10_000 {
			t.Fatalf("chain stuck at height %d, want %d", n.Chain().Height(), height)
		}
		sim.RunFor(10 * time.Second)
	}
}

// signed signs tx with k.
func signed(t *testing.T, k *cryptoutil.KeyPair, tx *types.Transaction) *types.Transaction {
	t.Helper()
	tx.From = k.Address()
	if err := tx.Sign(k); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	return tx
}

// TestProposerBuildsOnce: the proposer executes its candidates once to
// build the block (subsidy first, as validation will) and once more when
// the block connects; what cannot apply stays pooled, an invoke that
// fails is included with its fee kept, a transfer only the block's own
// subsidy funds is included, and a follower fed the blocks agrees on
// every root having executed each invoke once.
func TestProposerBuildsOnce(t *testing.T) {
	for _, workers := range []int{0, 4} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) { proposerBuildsOnce(t, workers) })
	}
}

func proposerBuildsOnce(t *testing.T, workers int) {
	owner := cryptoutil.KeyFromSeed([]byte("builds-once-owner"))
	gapper := cryptoutil.KeyFromSeed([]byte("builds-once-gap"))
	pauper := cryptoutil.KeyFromSeed([]byte("builds-once-pauper"))
	clumsy := cryptoutil.KeyFromSeed([]byte("builds-once-clumsy"))
	payee := cryptoutil.KeyFromSeed([]byte("builds-once-payee")).Address()
	callers := make([]*cryptoutil.KeyPair, 4)
	alloc := map[cryptoutil.Address]uint64{
		owner.Address(): 100_000, gapper.Address(): 1_000, pauper.Address(): 10, clumsy.Address(): 1_000,
	}
	for i := range callers {
		callers[i] = cryptoutil.KeyFromSeed([]byte(fmt.Sprintf("builds-once-caller-%d", i)))
		alloc[callers[i].Address()] = 1_000
	}
	const minerSeed = "builds-once-miner"
	minerKey := cryptoutil.KeyFromSeed([]byte(minerSeed))
	logger := vm.ContractAddress(owner.Address(), 0)

	sim := simclock.NewSimulator()
	minerExec, followerExec := newCountingExecutor(), newCountingExecutor()
	miner := soloNode(t, sim, minerSeed, true, minerExec, workers, 0, alloc)
	follower := soloNode(t, simclock.NewSimulator(), "builds-once-follower", false, followerExec, workers, 0, alloc)

	submit := func(tx *types.Transaction) *types.Transaction {
		t.Helper()
		if err := miner.SubmitTx(tx); err != nil {
			t.Fatalf("SubmitTx: %v", err)
		}
		return tx
	}
	// Block 1's candidates: the deploy, and a transfer from the miner,
	// whose account is empty until this very block's subsidy.
	submit(signed(t, owner, &types.Transaction{Kind: types.TxDeploy, Fee: 3, GasLimit: 100_000, Data: vm.MustAssemble(logStoreSrc)}))
	fromMiner := submit(signed(t, minerKey, types.NewTransfer(cryptoutil.ZeroAddress, payee, 40, 1, 0)))
	miner.Start()
	mineTo(t, sim, miner, 1)

	// Never applicable: a nonce ahead of the account's, a cost above the balance.
	gap := submit(signed(t, gapper, types.NewTransfer(cryptoutil.ZeroAddress, payee, 1, 9, 5)))
	broke := submit(signed(t, pauper, types.NewTransfer(cryptoutil.ZeroAddress, payee, 1_000, 9, 0)))
	// Included and failed: the gas limit does not cover the first opcode.
	failing := submit(signed(t, clumsy, &types.Transaction{Kind: types.TxInvoke, To: logger, Fee: 4, GasLimit: 1,
		Data: vm.PackArgs(vm.WordFromUint64(999))}))
	var invokes []*types.Transaction
	for round := uint64(0); round < 3; round++ {
		for i, k := range callers {
			invokes = append(invokes, submit(signed(t, k, &types.Transaction{Kind: types.TxInvoke, To: logger, Nonce: round,
				Fee: 2, GasLimit: 10_000, Data: vm.PackArgs(vm.WordFromUint64(10*round + uint64(i) + 1))})))
		}
		mineTo(t, sim, miner, miner.Chain().Height()+2)
	}
	miner.Stop()

	height := miner.Chain().Height()
	m := miner.Metrics()
	if m.BlocksProposed != height || m.BlocksRejected != 0 {
		t.Fatalf("proposed %d, rejected %d at height %d: a produced block did not self-connect", m.BlocksProposed, m.BlocksRejected, height)
	}
	if workers > 0 && m.ExecParallelBlocks == 0 {
		t.Fatal("ExecWorkers > 0 but no block took the parallel path")
	}
	included := make(map[cryptoutil.Hash]uint64)
	for h := uint64(1); h <= height; h++ {
		bh, _ := miner.Chain().AtHeight(h)
		b, ok := miner.Tree().Get(bh)
		if !ok {
			t.Fatalf("no block at height %d", h)
		}
		for _, tx := range b.Txs[1:] {
			included[tx.ID()] = h
		}
		if err := follower.HandleBlock(b); err != nil {
			t.Fatalf("follower h=%d: %v", h, err)
		}
	}
	if follower.Chain().Head() != miner.Chain().Head() {
		t.Fatalf("follower head %s, miner head %s", follower.Chain().Head().Short(), miner.Chain().Head().Short())
	}

	if included[fromMiner.ID()] != 1 {
		t.Fatalf("the miner's subsidy-funded transfer is in block %d, want 1", included[fromMiner.ID()])
	}
	for name, tx := range map[string]*types.Transaction{"nonce-gap": gap, "insufficient-balance": broke} {
		if h, ok := included[tx.ID()]; ok || !miner.Pool().Has(tx.ID()) {
			t.Fatalf("%s transaction: in block %d (%v), pooled %v; want left pooled", name, h, ok, miner.Pool().Has(tx.ID()))
		}
	}
	st := follower.State()
	slot := func(v uint64) []byte { w := vm.WordFromUint64(v); return st.Storage(logger, w[:]) }
	if _, ok := included[failing.ID()]; !ok || len(slot(999)) != 0 || st.Nonce(clumsy.Address()) != 1 || st.Balance(clumsy.Address()) != 1_000-4 {
		t.Fatalf("failing invoke: included %v, slot %x, nonce %d, balance %d; want included, no effect, fee kept",
			ok, slot(999), st.Nonce(clumsy.Address()), st.Balance(clumsy.Address()))
	}
	for _, tx := range append(invokes, failing) {
		if _, ok := included[tx.ID()]; !ok {
			t.Fatalf("invoke %s was never included", tx.ID().Short())
		}
		if got := minerExec.invokes[tx.ID()]; got != 2 {
			t.Errorf("miner executed invoke %s %d times, want 2 (build, connect)", tx.ID().Short(), got)
		}
		if got := followerExec.invokes[tx.ID()]; got != 1 {
			t.Errorf("follower executed invoke %s %d times, want 1", tx.ID().Short(), got)
		}
	}
	if got := vm.WordFromUint64(1); string(slot(21)) != string(got[:]) {
		t.Fatalf("slot 21 = %x, want 1", slot(21))
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestExecutorKeepsNoResidue: executing a block leaves nothing behind on
// the contract executor, so a long-running node's heap does not grow with
// the transactions it has executed. A LOG-ing contract invoked once a
// block for 200 blocks leaves the executor exactly as configured.
func TestExecutorKeepsNoResidue(t *testing.T) {
	for _, workers := range []int{0, 4} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			const blocks = 200
			owner := cryptoutil.KeyFromSeed([]byte("residue-owner"))
			caller := cryptoutil.KeyFromSeed([]byte("residue-caller"))
			alloc := map[cryptoutil.Address]uint64{owner.Address(): 100_000, caller.Address(): 100_000}
			registry := contract.NewRegistry()
			ex := contract.NewExecutor(registry)
			sim := simclock.NewSimulator()
			n := soloNode(t, sim, "residue-miner", true, ex, workers, 1, alloc)

			if err := n.SubmitTx(signed(t, owner, &types.Transaction{Kind: types.TxDeploy, Fee: 3, GasLimit: 100_000,
				Data: vm.MustAssemble(logStoreSrc)})); err != nil {
				t.Fatalf("SubmitTx: %v", err)
			}
			logger := vm.ContractAddress(owner.Address(), 0)
			for i := uint64(0); i < blocks; i++ {
				if err := n.SubmitTx(signed(t, caller, &types.Transaction{Kind: types.TxInvoke, To: logger, Nonce: i,
					Fee: 2, GasLimit: 10_000, Data: vm.PackArgs(vm.WordFromUint64(i + 1))})); err != nil {
					t.Fatalf("SubmitTx: %v", err)
				}
			}
			n.Start()
			mineTo(t, sim, n, blocks+1)
			n.Stop()

			if got := n.State().Nonce(caller.Address()); got != blocks {
				t.Fatalf("%d invokes executed, want %d", got, blocks)
			}
			if workers > 0 && n.Metrics().ExecParallelBlocks == 0 {
				t.Fatal("ExecWorkers > 0 but no block took the parallel path")
			}
			fresh := contract.NewExecutor(registry)
			fresh.SetNow(ex.Now())
			if !reflect.DeepEqual(ex, fresh) {
				t.Fatalf("executor after %d blocks is not what a fresh one is: it kept something per execution", blocks)
			}
		})
	}
}

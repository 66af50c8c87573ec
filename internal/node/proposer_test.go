package node

import (
	"fmt"
	"math/rand"
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

// mainChain returns n's main chain above genesis, lowest block first.
func mainChain(t *testing.T, n *Node) []*types.Block {
	t.Helper()
	chain := make([]*types.Block, 0, n.Chain().Height())
	for h := uint64(1); h <= n.Chain().Height(); h++ {
		bh, _ := n.Chain().AtHeight(h)
		b, ok := n.Tree().Get(bh)
		if !ok {
			t.Fatalf("no block at height %d", h)
		}
		chain = append(chain, b)
	}
	return chain
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

// TestProposerBuildsOnce: the proposer executes its candidates once, to
// build the block (subsidy first, as validation will), and stores the
// state that pass committed — no second run when the block joins its own
// tree; what cannot apply stays pooled, an invoke that fails is included
// with its fee kept, a transfer only the block's own subsidy funds is
// included, and a follower fed the blocks agrees on every root having
// executed each invoke once, through the executor at the width configured.
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
	if m.ExecParallelBlocks != 0 {
		t.Fatalf("the miner ran %d of its own blocks through the executor", m.ExecParallelBlocks)
	}
	included := make(map[cryptoutil.Hash]uint64)
	for _, b := range mainChain(t, miner) {
		for _, tx := range b.Txs[1:] {
			included[tx.ID()] = b.Header.Height
		}
		if err := follower.HandleBlock(b); err != nil {
			t.Fatalf("follower h=%d: %v", b.Header.Height, err)
		}
	}
	if follower.Chain().Head() != miner.Chain().Head() {
		t.Fatalf("follower head %s, miner head %s", follower.Chain().Head().Short(), miner.Chain().Head().Short())
	}
	if fm := follower.Metrics(); fm.BlocksRejected != 0 || (workers > 0 && fm.ExecParallelBlocks == 0) {
		t.Fatalf("follower rejected %d blocks, %d took the parallel path at ExecWorkers = %d", fm.BlocksRejected, fm.ExecParallelBlocks, workers)
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
		if got := minerExec.invokes[tx.ID()]; got != 1 {
			t.Errorf("miner executed invoke %s %d times, want 1 (the build pass)", tx.ID().Short(), got)
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
// block for 200 blocks leaves the executor exactly as configured, on the
// miner that built the blocks and on a follower that ran them through the
// executor at the width configured.
func TestExecutorKeepsNoResidue(t *testing.T) {
	for _, workers := range []int{0, 4} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			const blocks = 200
			owner := cryptoutil.KeyFromSeed([]byte("residue-owner"))
			caller := cryptoutil.KeyFromSeed([]byte("residue-caller"))
			alloc := map[cryptoutil.Address]uint64{owner.Address(): 100_000, caller.Address(): 100_000}
			registry := contract.NewRegistry()
			ex, followerEx := contract.NewExecutor(registry), contract.NewExecutor(registry)
			sim := simclock.NewSimulator()
			n := soloNode(t, sim, "residue-miner", true, ex, workers, 1, alloc)
			follower := soloNode(t, simclock.NewSimulator(), "residue-follower", false, followerEx, workers, 1, alloc)

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
			for _, b := range mainChain(t, n) {
				if err := follower.HandleBlock(b); err != nil {
					t.Fatalf("follower h=%d: %v", b.Header.Height, err)
				}
			}
			if workers > 0 && follower.Metrics().ExecParallelBlocks == 0 {
				t.Fatal("ExecWorkers > 0 but no block took the parallel path")
			}
			fresh := contract.NewExecutor(registry)
			fresh.SetNow(ex.Now())
			if !reflect.DeepEqual(ex, fresh) || !reflect.DeepEqual(followerEx, fresh) {
				t.Fatalf("executor after %d blocks is not what a fresh one is: it kept something per execution", blocks)
			}
		})
	}
}

// TestBuiltBlocksConnectEverywhere is the check a proposer used to run on
// every block it sealed by executing it a second time, as a property: from
// random pools — transactions in nonce order and ahead of it, from funded,
// overdrawn and unfunded senders, invokes that succeed and that run out of
// gas, and a transfer from the miner that only the block's own subsidy
// funds — the build pass produces 200 blocks, and a fresh follower that
// never saw a pool accepts every one, at either execution width.
func TestBuiltBlocksConnectEverywhere(t *testing.T) {
	const (
		blocks    = 200
		minerSeed = "everywhere-miner"
	)
	rng := rand.New(rand.NewSource(23))
	owner := cryptoutil.KeyFromSeed([]byte("everywhere-owner"))
	minerKey := cryptoutil.KeyFromSeed([]byte(minerSeed))
	logger := vm.ContractAddress(owner.Address(), 0)
	alloc := map[cryptoutil.Address]uint64{owner.Address(): 100_000}
	funded := make([]*cryptoutil.KeyPair, 6)
	for i := range funded {
		funded[i] = cryptoutil.KeyFromSeed([]byte(fmt.Sprintf("everywhere-funded-%d", i)))
		alloc[funded[i].Address()] = 50_000
	}
	// Unfunded until a transfer happens to pick them as its recipient.
	unfunded := make([]*cryptoutil.KeyPair, 3)
	recipients := []cryptoutil.Address{minerKey.Address(), cryptoutil.KeyFromSeed([]byte("everywhere-payee")).Address()}
	for i := range unfunded {
		unfunded[i] = cryptoutil.KeyFromSeed([]byte(fmt.Sprintf("everywhere-unfunded-%d", i)))
		recipients = append(recipients, unfunded[i].Address())
	}

	sim := simclock.NewSimulator()
	miner := soloNode(t, sim, minerSeed, true, contract.NewExecutor(contract.NewRegistry()), 0, 0, alloc)
	submit := func(k *cryptoutil.KeyPair, tx *types.Transaction) {
		t.Helper()
		if err := miner.SubmitTx(signed(t, k, tx)); err != nil {
			t.Fatalf("SubmitTx: %v", err)
		}
	}
	submit(owner, &types.Transaction{Kind: types.TxDeploy, Fee: 9, GasLimit: 100_000, Data: vm.MustAssemble(logStoreSrc)})
	miner.Start()
	mineTo(t, sim, miner, 1)

	var overdrawn, gapped, outOfGas, fromSubsidy int
	for round := uint64(0); miner.Chain().Height() < blocks; round++ {
		st := miner.State()
		for _, k := range append(funded, unfunded...) {
			if rng.Intn(10) < 3 {
				continue
			}
			nonce := st.Nonce(k.Address())
			for i, n := 0, 1+rng.Intn(3); i < n; i++ {
				fee := uint64(2 + rng.Intn(8))
				switch rng.Intn(4) {
				case 0: // an invoke that stores
					submit(k, &types.Transaction{Kind: types.TxInvoke, To: logger, Nonce: nonce, Fee: fee, GasLimit: 10_000,
						Data: vm.PackArgs(vm.WordFromUint64(1 + round*16 + uint64(i)))})
				case 1: // an invoke that runs out of gas at its first opcode: included, fee kept
					submit(k, &types.Transaction{Kind: types.TxInvoke, To: logger, Nonce: nonce, Fee: fee, GasLimit: 1,
						Data: vm.PackArgs(vm.WordFromUint64(round))})
					outOfGas++
				default:
					submit(k, types.NewTransfer(cryptoutil.ZeroAddress, recipients[rng.Intn(len(recipients))], uint64(1+rng.Intn(100)), fee, nonce))
				}
				nonce++
			}
			switch rng.Intn(6) {
			case 0: // ahead of the account's nonce: pooled until the gap closes, if it ever does
				submit(k, types.NewTransfer(cryptoutil.ZeroAddress, recipients[0], 1, 1, nonce+1+uint64(rng.Intn(3))))
				gapped++
			case 1: // costs more than the account will hold: pooled, and the nonces behind it wait
				submit(k, types.NewTransfer(cryptoutil.ZeroAddress, recipients[1], 10_000_000, 1, nonce))
				overdrawn++
			}
		}
		if rng.Intn(2) == 0 {
			// More than the miner holds: only this block's subsidy, credited
			// ahead of its transactions, covers it.
			bal := st.Balance(minerKey.Address())
			submit(minerKey, types.NewTransfer(cryptoutil.ZeroAddress, recipients[1], bal+30, 5, st.Nonce(minerKey.Address())))
			fromSubsidy++
		}
		if err := st.Err(); err != nil {
			t.Fatal(err)
		}
		mineTo(t, sim, miner, miner.Chain().Height()+1)
	}
	miner.Stop()

	height := miner.Chain().Height()
	if m := miner.Metrics(); m.BlocksProposed != height || m.BlocksRejected != 0 || m.BlocksAccepted != height {
		t.Fatalf("miner proposed %d, accepted %d, rejected %d at height %d", m.BlocksProposed, m.BlocksAccepted, m.BlocksRejected, height)
	}
	chain := mainChain(t, miner)
	txs := 0
	for _, b := range chain {
		txs += len(b.Txs) - 1
	}
	if overdrawn == 0 || gapped == 0 || outOfGas == 0 || fromSubsidy == 0 || miner.Pool().Len() == 0 {
		t.Fatalf("pools held %d overdrawn, %d nonce-gapped, %d out-of-gas, %d subsidy-funded transactions, %d left pooled: the generator covers less than it says",
			overdrawn, gapped, outOfGas, fromSubsidy, miner.Pool().Len())
	}
	t.Logf("%d blocks, %d transactions included, %d left pooled", height, txs, miner.Pool().Len())

	for _, workers := range []int{0, 4} {
		follower := soloNode(t, simclock.NewSimulator(), fmt.Sprintf("everywhere-follower-%d", workers), false,
			contract.NewExecutor(contract.NewRegistry()), workers, 0, alloc)
		for _, b := range chain {
			if err := follower.HandleBlock(b); err != nil {
				t.Fatalf("workers=%d: follower refused block %d: %v", workers, b.Header.Height, err)
			}
		}
		if m := follower.Metrics(); m.BlocksRejected != 0 || follower.Chain().Head() != miner.Chain().Head() {
			t.Fatalf("workers=%d: follower rejected %d blocks, head %s, miner head %s",
				workers, m.BlocksRejected, follower.Chain().Head().Short(), miner.Chain().Head().Short())
		}
	}
}

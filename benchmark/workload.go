package main

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/types"
	"dcsledger/internal/vm"
)

// workload is one traffic mix and the fleet configuration it runs
// against. Everything that differs between workloads is a field here;
// everything else (3 nodes, full mesh, one miner, 256 senders, 2 submit
// connections) is shared.
type workload struct {
	name string

	// rate is the offered load in tx/s, on a fixed schedule (open loop).
	rate int
	// invokeShare is the fraction of transactions that invoke the loop
	// contract instead of transferring value.
	invokeShare float64
	// idleAccounts are funded at genesis and never touched: they only
	// make the state (and every O(accounts) commit) bigger.
	idleAccounts int
	// proofs makes the reader alternate GET /balance with GET /proof
	// (only the disk backend serves proofs).
	proofs bool

	interval   time.Duration
	fsync      string
	backend    string
	stateCache int64
}

const (
	senderCount   = 256
	contractSlots = 1024
	zipfS         = 1.1
	txFee         = 2
	senderFunds   = 1 << 40
	idleFunds     = 1_000_000
	invokeGas     = 100_000
	submitConns   = 2
)

// workloads are the four traffic mixes, all open loop and all at 8
// blocks a second: a window then holds some 160 blocks, which keeps the
// PoW interval lottery's share of the run-to-run spread small. The rates
// leave the 2-core sandbox a third of its CPU even in its slow hours
// (the same fleet costs up to 40 % more CPU time then), because an open
// loop that falls behind for a whole window ends in timeouts.
// BENCHMARK.json records why each was chosen; README.md says which
// layers each one loads.
var workloads = []workload{
	{
		// Small blocks of plain transfers: HTTP decode, ECDSA verify,
		// txpool and gossip do the work, state is tiny. The baseline.
		name: "transfer-steady",
		rate: 400, interval: 125 * time.Millisecond, fsync: "interval", backend: "memory",
	},
	{
		// The same mix at 1.75 times the rate: mempool and blocks that
		// much larger, submits queuing on the node mutex behind block
		// connects, the fleet above one core. A change that helps the
		// idle path and costs the loaded one shows here.
		name: "transfer-heavy",
		rate: 700, interval: 125 * time.Millisecond, fsync: "interval", backend: "memory",
	},
	{
		// Contract execution: every invoke runs the 200-iteration loop,
		// and conflicts come from slot skew, so exec, vm and the
		// conflict replay dominate.
		name: "invoke-zipf",
		rate: 200, invokeShare: 0.8, interval: 125 * time.Millisecond, fsync: "interval", backend: "memory",
	},
	{
		// A state 9 times larger, journaled with an fsync per append and
		// mirrored to a disk trie that does not fit its cache, with
		// proofs read beside the writes: state commit, WAL and nodestore
		// dominate. 2000 idle accounts keep the miner's O(accounts)
		// commits per block at a third of its time at this block rate.
		name: "bigstate-durable",
		rate: 150, idleAccounts: 2000, proofs: true, interval: 125 * time.Millisecond,
		fsync: "always", backend: "disk", stateCache: 256 << 10,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// loopContractSrc spins a counter 200 times, then stores it into the
// slot named by argument 0: CPU-heavy enough that execution shows, and
// two invocations conflict exactly when they pick the same slot.
const loopContractSrc = `
	PUSH 0
loop:
	PUSH 1
	ADD
	DUP
	PUSH 200
	LT
	PUSH @loop
	JUMPI
	PUSH 0
	ARG
	SWAP
	SSTORE
	STOP
`

// genTx is one pre-signed transaction of the generated stream.
type genTx struct {
	tx   *types.Transaction
	id   cryptoutil.Hash
	body []byte // the POST /tx request body
}

// inputs is everything a run feeds the fleet, derived from the seed
// alone: the genesis allocation, the contract deployment and the
// transaction stream.
type inputs struct {
	senders  []*cryptoutil.KeyPair
	idle     []cryptoutil.Address
	owner    *cryptoutil.KeyPair // deploys the contract; funded at genesis
	contract cryptoutil.Address
	deploy   *genTx // nil unless the workload invokes
	txs      []genTx
}

// grant is one genesis allocation.
type grant struct {
	addr   cryptoutil.Address
	amount uint64
}

// grants is the genesis allocation in a fixed order: senders, the
// contract owner, the idle accounts. The fleet gets it as -alloc flags,
// the replay credits it to its genesis states.
func (in *inputs) grants() []grant {
	out := make([]grant, 0, len(in.senders)+len(in.idle)+1)
	for _, k := range in.senders {
		out = append(out, grant{k.Address(), senderFunds})
	}
	out = append(out, grant{in.owner.Address(), senderFunds})
	for _, a := range in.idle {
		out = append(out, grant{a, idleFunds})
	}
	return out
}

// alloc renders the allocation as ledgerd -alloc flag values.
func (in *inputs) alloc() []string {
	gs := in.grants()
	out := make([]string, len(gs))
	for i, g := range gs {
		out[i] = fmt.Sprintf("%s=%d", g.addr.Hex(), g.amount)
	}
	return out
}

// streamLen is how many transactions a run of the workload pre-signs
// for the given seconds of load.
func (w workload) streamLen(loadSeconds float64) int {
	return int(float64(w.rate) * loadSeconds)
}

// generate derives the run's inputs from the seed. The same workload,
// seed and count always give a byte-identical stream: accounts come
// from seeded key derivation, choices from one seeded math/rand source
// and signatures from the deterministic signer.
func generate(w workload, seed int64, count int) (*inputs, error) {
	in := &inputs{
		senders: make([]*cryptoutil.KeyPair, senderCount),
		owner:   cryptoutil.KeyFromSeed([]byte(fmt.Sprintf("fleetbench/%d/owner", seed))),
	}
	for i := range in.senders {
		in.senders[i] = cryptoutil.KeyFromSeed([]byte(fmt.Sprintf("fleetbench/%d/sender/%d", seed, i)))
	}
	in.idle = make([]cryptoutil.Address, w.idleAccounts)
	for i := range in.idle {
		h := cryptoutil.HashBytes([]byte(fmt.Sprintf("fleetbench/%d/idle/%d", seed, i)))
		in.idle[i] = cryptoutil.AddressFromHash(h)
	}
	in.contract = vm.ContractAddress(in.owner.Address(), 0)

	rng := rand.New(rand.NewSource(seed))
	recipients := rand.NewZipf(rng, zipfS, 1, senderCount-1)
	slots := rand.NewZipf(rng, zipfS, 1, contractSlots-1)
	nonces := make([]uint64, senderCount)
	in.txs = make([]genTx, count)
	signers := make([]*cryptoutil.KeyPair, count)
	for k := range in.txs {
		// Transaction k goes out on connection k % submitConns, and a
		// sender is sticky to a connection, so that one sender's nonces
		// reach the fleet in order.
		s := rng.Intn(senderCount/submitConns)*submitConns + k%submitConns
		from := in.senders[s]
		var tx *types.Transaction
		if rng.Float64() < w.invokeShare {
			tx = &types.Transaction{
				Kind: types.TxInvoke, From: from.Address(), To: in.contract,
				Fee: txFee, Nonce: nonces[s], GasLimit: invokeGas,
				Data: vm.PackArgs(vm.WordFromUint64(slots.Uint64())),
			}
		} else {
			// The zipf rank is rotated by the sender index so nobody
			// pays themselves and the hot recipients are not all on
			// one connection.
			r := (s + 1 + int(recipients.Uint64())) % senderCount
			if r == s {
				r = (r + 1) % senderCount
			}
			tx = types.NewTransfer(from.Address(), in.senders[r].Address(), uint64(1+rng.Intn(100)), txFee, nonces[s])
		}
		nonces[s]++
		in.txs[k] = genTx{tx: tx}
		signers[k] = from
	}
	if w.invokeShare > 0 {
		code, err := vm.Assemble(loopContractSrc)
		if err != nil {
			return nil, fmt.Errorf("assemble loop contract: %w", err)
		}
		in.deploy = &genTx{tx: &types.Transaction{
			Kind: types.TxDeploy, From: in.owner.Address(),
			Fee: txFee, GasLimit: invokeGas, Data: code,
		}}
		if err := seal(in.deploy, in.owner); err != nil {
			return nil, err
		}
	}

	// Signing dominates generation; it is deterministic per transaction,
	// so it can be spread over the cores without changing the stream.
	workers := runtime.GOMAXPROCS(0)
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for k := wk; k < count; k += workers {
				if err := seal(&in.txs[k], signers[k]); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}(wk)
	}
	wg.Wait()
	return in, first
}

// seal signs g.tx deterministically and renders its id and POST body.
func seal(g *genTx, key *cryptoutil.KeyPair) error {
	if err := g.tx.SignDeterministic(key); err != nil {
		return err
	}
	g.id = g.tx.ID()
	g.body = []byte(`{"txHex":"` + hex.EncodeToString(g.tx.Encode()) + `"}`)
	return nil
}

// streamHash fingerprints the generated inputs: the allocation, the
// deployment and every request body in order.
func (in *inputs) streamHash() string {
	var parts [][]byte
	for _, a := range in.alloc() {
		parts = append(parts, []byte(a))
	}
	if in.deploy != nil {
		parts = append(parts, in.deploy.body)
	}
	for i := range in.txs {
		parts = append(parts, in.txs[i].body)
	}
	return cryptoutil.HashBytes(parts...).Hex()
}

// ledgerModel is the generator's own account of what the committed
// transactions must have done to the sender accounts. Fees leave the
// senders for the miner, which is not one of them.
type ledgerModel struct {
	balance map[cryptoutil.Address]uint64
	nonce   map[cryptoutil.Address]uint64
}

func newLedgerModel(in *inputs) *ledgerModel {
	m := &ledgerModel{balance: make(map[cryptoutil.Address]uint64), nonce: make(map[cryptoutil.Address]uint64)}
	for _, g := range in.grants() {
		m.balance[g.addr] = g.amount
	}
	return m
}

// apply records one committed transaction. Transfers move value between
// senders; a deploy or invoke moves none (Value is 0) and costs the fee
// whether or not the contract call succeeded.
func (m *ledgerModel) apply(tx *types.Transaction) {
	m.balance[tx.From] -= tx.Value + tx.Fee
	m.nonce[tx.From]++
	if tx.Kind == types.TxTransfer {
		m.balance[tx.To] += tx.Value
	}
}

package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/mpt"
	"dcsledger/internal/state"
	"dcsledger/internal/types"
	"dcsledger/internal/vm"
)

// TestRandomBlocksMatchSerial is the executor's property test: random
// 256-transaction blocks — interleaved senders, shared hot recipients,
// direct payments to the proposer, contract invocations on overlapping
// storage slots — must produce bit-identical roots and receipts at
// every speculation width, paranoid checks on — and the same ones
// whether the parent is a layer of writes, a committed trie in memory, or
// a trie loaded from a node store, the three things lanes read through.
// Run under -race it also proves the speculation lanes share nothing
// they shouldn't while they read one committed parent concurrently.
func TestRandomBlocksMatchSerial(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))

			parent := state.New()
			parent.SetExecutor(vm.NewExecutor())
			counter := deployContract(t, parent, fmt.Sprintf("prop-owner-%d", seed), counterSrc)
			_, proposer := keyAddr(fmt.Sprintf("prop-proposer-%d", seed))

			const senders = 24
			keys := make([]*cryptoutil.KeyPair, senders)
			nonces := make([]uint64, senders)
			for i := range keys {
				keys[i] = cryptoutil.KeyFromSeed([]byte(fmt.Sprintf("prop-%d-sender-%d", seed, i)))
				parent.Credit(keys[i].Address(), 1_000_000)
			}
			var hot [4]cryptoutil.Address
			for i := range hot {
				_, hot[i] = keyAddr(fmt.Sprintf("prop-%d-hot-%d", seed, i))
			}

			const blockTxs = 256
			txs := make([]*types.Transaction, 0, blockTxs)
			for i := 0; i < blockTxs; i++ {
				s := rng.Intn(senders)
				k := keys[s]
				var tx *types.Transaction
				switch p := rng.Intn(100); {
				case p < 10: // contract invoke, 8 slots shared by everyone
					tx = &types.Transaction{
						Kind: types.TxInvoke, From: k.Address(), To: counter,
						Nonce: nonces[s], Fee: 2, GasLimit: 100_000,
						Data: vm.PackArgs(vm.WordFromUint64(uint64(rng.Intn(8)))),
					}
				case p < 14: // pay the proposer directly
					tx = types.NewTransfer(k.Address(), proposer, 5, 2, nonces[s])
				case p < 30: // hot shared recipient
					tx = types.NewTransfer(k.Address(), hot[rng.Intn(len(hot))], 5, 2, nonces[s])
				default: // fresh unique recipient
					_, to := keyAddr(fmt.Sprintf("prop-%d-fresh-%d", seed, i))
					tx = types.NewTransfer(k.Address(), to, 5, 2, nonces[s])
				}
				nonces[s]++
				if err := tx.Sign(k); err != nil {
					t.Fatalf("Sign: %v", err)
				}
				txs = append(txs, tx)
			}
			b := blockWith(t, proposer, 50, txs...)
			want := assertMatchesSerial(t, parent, b, 50, 1, 2, 8)

			store := make(mapStore)
			root, err := parent.AccountTrie().Commit(store)
			if err != nil {
				t.Fatalf("flush: %v", err)
			}
			loaded := state.Load(root, store)
			loaded.SetExecutor(vm.NewExecutor())
			for name, p := range map[string]*state.State{"detached": parent.Detach(), "loaded": loaded} {
				if got := assertMatchesSerial(t, p, b, 50, 1, 2, 8); got != want {
					t.Fatalf("%s parent: root %s, layer parent %s", name, got.Short(), want.Short())
				}
			}
		})
	}
}

// mapStore is a node store in a map: what a trie is flushed to and
// loaded back over.
type mapStore map[cryptoutil.Hash][]byte

func (m mapStore) Put(h cryptoutil.Hash, enc []byte) error {
	m[h] = append([]byte(nil), enc...)
	return nil
}

func (m mapStore) Has(h cryptoutil.Hash) bool { _, ok := m[h]; return ok }

func (m mapStore) Node(h cryptoutil.Hash, decode func(cryptoutil.Hash, []byte) (any, int, error)) (any, error) {
	enc, ok := m[h]
	if !ok {
		return nil, mpt.ErrMissingNode
	}
	v, _, err := decode(h, enc)
	return v, err
}

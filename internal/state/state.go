// Package state implements the account-model world state of the ledger:
// balances, nonces, contract code, and contract storage. State is
// committed to an authenticated Merkle Patricia trie so that every block
// header carries a verifiable state root (the Data layer of the paper's
// stack).
//
// States form copy-on-write diff layers: Copy returns an overlay that
// records only the accounts/slots written through it and reads through
// to its parent for everything else, so copying a large state is O(1)
// instead of O(accounts). A layer must be treated as frozen once it has
// children (the node freezes every per-block post-state after Commit);
// Flatten collapses a layer chain back into a single materialized base.
package state

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/types"
)

// Application errors. They are matchable with errors.Is so the mempool
// and block validator can distinguish permanently invalid transactions
// from not-yet-valid ones.
var (
	ErrInsufficientBalance = errors.New("state: insufficient balance")
	ErrBadNonce            = errors.New("state: bad nonce")
	ErrNoExecutor          = errors.New("state: no contract executor configured")
	ErrUnknownKind         = errors.New("state: unknown transaction kind")
	ErrBadCoinbase         = errors.New("state: invalid coinbase")
)

// Account is the per-address record.
type Account struct {
	Balance uint64          `json:"balance"`
	Nonce   uint64          `json:"nonce"`
	Code    cryptoutil.Hash `json:"code,omitempty"` // hash of contract code, zero for EOAs
}

// Executor runs contract deployments and invocations against the state.
// It is implemented by the vm package (and by native contract registries)
// and injected by the node to keep this package free of a contract-layer
// dependency.
type Executor interface {
	// Deploy creates a contract from tx.Data, returning its address and
	// the gas consumed.
	Deploy(st *State, tx *types.Transaction) (cryptoutil.Address, uint64, error)
	// Invoke calls the contract at tx.To with input tx.Data, returning
	// the gas consumed.
	Invoke(st *State, tx *types.Transaction) (uint64, error)
}

// ForkableExecutor is implemented by executors whose per-execution side
// state (an event log, say) can be forked for speculative execution and
// merged back in commit order. The optimistic parallel executor
// (internal/exec) gives every speculation lane its own fork so lanes
// never share mutable executor state; executors that do not implement it
// are serial-only, and transactions that need them are replayed instead
// of speculated.
type ForkableExecutor interface {
	Executor
	// Fork returns an executor with the same configuration whose side
	// effects accumulate in a private buffer, safe to drive concurrently
	// with other forks.
	Fork() Executor
	// Absorb merges a fork's accumulated side effects into the receiver.
	// The caller invokes it in deterministic transaction-index order.
	Absorb(fork Executor)
}

// Receipt records the outcome of applying one transaction.
type Receipt struct {
	TxID            cryptoutil.Hash    `json:"txId"`
	OK              bool               `json:"ok"`
	GasUsed         uint64             `json:"gasUsed"`
	ContractAddress cryptoutil.Address `json:"contractAddress,omitempty"`
	Err             string             `json:"err,omitempty"`
}

// SlotKey identifies one contract storage slot for access tracking.
type SlotKey struct {
	Addr cryptoutil.Address
	Key  string
}

// Access records the read and write footprint of execution on a tracked
// layer: account records and storage slots. Contract code needs no set of
// its own — code bytes are content-addressed and immutable once stored,
// so the only mutable handle is the Code hash inside the account record,
// which the account sets already cover.
//
// An Access is attached to a diff layer with Track and inherited by every
// child layer Copy creates, so scratch layers staged inside ApplyTx
// record into the same footprint. It is not safe for concurrent use; the
// parallel executor gives each speculation lane its own Access.
type Access struct {
	ReadAccounts  map[cryptoutil.Address]struct{}
	WriteAccounts map[cryptoutil.Address]struct{}
	ReadSlots     map[SlotKey]struct{}
	WriteSlots    map[SlotKey]struct{}
}

// NewAccess returns an empty access footprint.
func NewAccess() *Access {
	return &Access{
		ReadAccounts:  make(map[cryptoutil.Address]struct{}),
		WriteAccounts: make(map[cryptoutil.Address]struct{}),
		ReadSlots:     make(map[SlotKey]struct{}),
		WriteSlots:    make(map[SlotKey]struct{}),
	}
}

// Touches reports whether addr appears anywhere in the footprint.
func (a *Access) Touches(addr cryptoutil.Address) bool {
	if _, ok := a.ReadAccounts[addr]; ok {
		return true
	}
	_, ok := a.WriteAccounts[addr]
	return ok
}

// State is the mutable world state. It is not safe for concurrent use;
// each node owns its state and copies it for speculative execution.
//
// A State is either a base layer (parent == nil, fully materialized) or
// a diff layer: its maps hold only entries written through this layer,
// and reads fall through to the parent chain. Deleted storage slots are
// recorded as tombstones so the parent's value stays shadowed.
type State struct {
	parent     *State
	accounts   map[cryptoutil.Address]Account
	code       map[cryptoutil.Hash][]byte
	storage    map[cryptoutil.Address]map[string][]byte
	storageDel map[cryptoutil.Address]map[string]struct{}
	executor   Executor
	track      *Access // non-nil only on speculation lanes (see Track)
	depth      int     // number of parent layers below this one
	memo       *memo   // commitment of the current contents; nil after any write (see commit.go)
}

// New returns an empty base state.
func New() *State {
	return &State{
		accounts: make(map[cryptoutil.Address]Account),
		code:     make(map[cryptoutil.Hash][]byte),
		storage:  make(map[cryptoutil.Address]map[string][]byte),
	}
}

// SetExecutor installs the contract executor used for deploy/invoke
// transactions.
func (s *State) SetExecutor(e Executor) { s.executor = e }

// Executor returns the installed contract executor, if any.
func (s *State) Executor() Executor { return s.executor }

// Depth returns the number of diff layers below this state (0 for a
// base layer). Exposed for tests and the node's pruning heuristics.
func (s *State) Depth() int { return s.depth }

// Track attaches an access footprint to this layer: every account and
// storage read or write through it (and through child layers it spawns)
// is recorded into a. Pass nil to stop tracking.
func (s *State) Track(a *Access) { s.track = a }

// Account returns the record for addr (zero value if absent).
func (s *State) Account(addr cryptoutil.Address) Account {
	acc, _ := s.lookupAccount(addr)
	return acc
}

// lookupAccount returns addr's record and whether a record exists
// anywhere in the layer chain, recording the read on tracked layers.
func (s *State) lookupAccount(addr cryptoutil.Address) (Account, bool) {
	if s.track != nil {
		s.track.ReadAccounts[addr] = struct{}{}
	}
	return s.account(addr)
}

// account is lookupAccount without the footprint: Commit reads through
// it, and a commitment is not part of any transaction's read set.
func (s *State) account(addr cryptoutil.Address) (Account, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		if acc, ok := cur.accounts[addr]; ok {
			return acc, true
		}
	}
	return Account{}, false
}

// setAccount is the single funnel for account-record writes, so tracked
// layers capture a complete write set.
func (s *State) setAccount(addr cryptoutil.Address, acc Account) {
	if s.track != nil {
		s.track.WriteAccounts[addr] = struct{}{}
	}
	s.memo = nil
	s.accounts[addr] = acc
}

// Balance returns the balance of addr.
func (s *State) Balance(addr cryptoutil.Address) uint64 { return s.Account(addr).Balance }

// Nonce returns the next expected nonce of addr.
func (s *State) Nonce(addr cryptoutil.Address) uint64 { return s.Account(addr).Nonce }

// Credit adds amount to addr's balance. A zero-amount credit of an
// account that already has a record is a no-op: it neither dirties the
// layer nor counts as a write in a tracked footprint (so the zero-value
// transfer every contract invocation performs does not serialize all
// invocations of one contract). Crediting an absent account still
// creates its record, even with amount 0, exactly as before.
func (s *State) Credit(addr cryptoutil.Address, amount uint64) {
	a, exists := s.lookupAccount(addr)
	if amount == 0 && exists {
		return
	}
	a.Balance += amount
	s.setAccount(addr, a)
}

// Debit removes amount from addr's balance. Zero-amount debits of
// existing accounts skip the write (see Credit).
func (s *State) Debit(addr cryptoutil.Address, amount uint64) error {
	a, exists := s.lookupAccount(addr)
	if a.Balance < amount {
		return fmt.Errorf("%w: %s has %d, needs %d", ErrInsufficientBalance, addr.Short(), a.Balance, amount)
	}
	if amount == 0 && exists {
		return nil
	}
	a.Balance -= amount
	s.setAccount(addr, a)
	return nil
}

// SetCode stores contract code and binds it to addr.
func (s *State) SetCode(addr cryptoutil.Address, code []byte) {
	h := cryptoutil.HashBytes([]byte("state/code"), code)
	s.code[h] = append([]byte(nil), code...)
	a := s.Account(addr)
	a.Code = h
	s.setAccount(addr, a)
}

// Code returns the contract code bound to addr.
func (s *State) Code(addr cryptoutil.Address) []byte {
	h := s.Account(addr).Code
	if h.IsZero() {
		return nil
	}
	for cur := s; cur != nil; cur = cur.parent {
		if c, ok := cur.code[h]; ok {
			return c
		}
	}
	return nil
}

// IsContract reports whether addr has code.
func (s *State) IsContract(addr cryptoutil.Address) bool {
	return !s.Account(addr).Code.IsZero()
}

// SetStorage writes a contract storage slot.
func (s *State) SetStorage(addr cryptoutil.Address, key, value []byte) {
	if s.track != nil {
		s.track.WriteSlots[SlotKey{Addr: addr, Key: string(key)}] = struct{}{}
	}
	s.memo = nil
	m := s.storage[addr]
	if m == nil {
		m = make(map[string][]byte)
		s.storage[addr] = m
	}
	m[string(key)] = append([]byte(nil), value...)
	if d := s.storageDel[addr]; d != nil {
		delete(d, string(key))
	}
}

// Storage reads a contract storage slot.
func (s *State) Storage(addr cryptoutil.Address, key []byte) []byte {
	k := string(key)
	if s.track != nil {
		s.track.ReadSlots[SlotKey{Addr: addr, Key: k}] = struct{}{}
	}
	v, _ := s.slot(addr, k)
	return v
}

// slot returns the live value of one storage slot and whether the slot
// exists (a slot may hold an empty value), without recording a read.
func (s *State) slot(addr cryptoutil.Address, k string) ([]byte, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		if v, ok := cur.storage[addr][k]; ok {
			return v, true
		}
		if _, ok := cur.storageDel[addr][k]; ok {
			return nil, false
		}
	}
	return nil, false
}

// DeleteStorage clears one slot.
func (s *State) DeleteStorage(addr cryptoutil.Address, key []byte) {
	k := string(key)
	if s.track != nil {
		s.track.WriteSlots[SlotKey{Addr: addr, Key: k}] = struct{}{}
	}
	s.memo = nil
	if m := s.storage[addr]; m != nil {
		delete(m, k)
	}
	if s.parent == nil {
		return // base layer: nothing below to shadow
	}
	d := s.storageDel[addr]
	if d == nil {
		d = make(map[string]struct{})
		if s.storageDel == nil {
			s.storageDel = make(map[cryptoutil.Address]map[string]struct{})
		}
		s.storageDel[addr] = d
	}
	d[k] = struct{}{}
}

// Copy returns a copy-on-write diff layer over s: writes go to the new
// layer, reads fall through. The receiver must not be mutated while the
// returned layer is in use (treat it as frozen); this is O(1) versus
// the old deep copy's O(accounts).
func (s *State) Copy() *State {
	return &State{
		parent:   s,
		accounts: make(map[cryptoutil.Address]Account),
		code:     make(map[cryptoutil.Hash][]byte),
		storage:  make(map[cryptoutil.Address]map[string][]byte),
		executor: s.executor,
		track:    s.track,
		depth:    s.depth + 1,
	}
}

// Flatten merges the whole layer chain into a fresh, parentless base
// state whose Commit equals the receiver's. The node flattens the head
// state every so often so that the layers of pruned ancestors become
// garbage-collectable. The memo carries over (the contents are the
// same, and a memo is never modified): the tries are persistent
// structures of their own, so the copy still pins no layer of the chain,
// and the next block's commit derives from them.
func (s *State) Flatten() *State {
	ns := New()
	ns.executor = s.executor
	ns.memo = s.memo
	s.forEachAccount(func(a cryptoutil.Address, acc Account) {
		ns.accounts[a] = acc
	})
	seenCode := make(map[cryptoutil.Hash]struct{})
	for cur := s; cur != nil; cur = cur.parent {
		for h, c := range cur.code {
			if _, ok := seenCode[h]; ok {
				continue
			}
			seenCode[h] = struct{}{}
			ns.code[h] = c // code is immutable once stored
		}
	}
	for _, addr := range s.storageAddrs() {
		var m map[string][]byte
		s.forEachStorage(addr, func(k string, v []byte) {
			if m == nil {
				m = make(map[string][]byte)
			}
			m[k] = v
		})
		if m != nil {
			ns.storage[addr] = m
		}
	}
	return ns
}

// Absorb folds a child diff layer (created by Copy of s) back into s.
// Exported for the optimistic parallel executor (internal/exec), which
// commits non-conflicting speculation lanes by absorbing them into the
// block layer in transaction-index order.
func (s *State) Absorb(child *State) { s.absorb(child) }

// absorb folds a child diff layer (created by Copy of s) back into s.
// It is the success path of speculative contract execution: effects are
// staged on the child and only merged when the contract completes.
func (s *State) absorb(child *State) {
	s.memo = nil
	for a, acc := range child.accounts {
		s.accounts[a] = acc
	}
	for h, c := range child.code {
		s.code[h] = c
	}
	for a, dels := range child.storageDel {
		for k := range dels {
			s.DeleteStorage(a, []byte(k))
		}
	}
	for a, m := range child.storage {
		sm := s.storage[a]
		if sm == nil {
			sm = make(map[string][]byte, len(m))
			s.storage[a] = sm
		}
		for k, v := range m {
			sm[k] = v
			if d := s.storageDel[a]; d != nil {
				delete(d, k)
			}
		}
	}
}

// forEachAccount visits every live account exactly once, newest layer
// first, in UNSPECIFIED order. Every visitor must be order-independent:
// MPT insertion commutes, and the flatten/count/collect visitors write
// into maps or sort afterwards.
func (s *State) forEachAccount(fn func(cryptoutil.Address, Account)) {
	seen := make(map[cryptoutil.Address]struct{})
	for cur := s; cur != nil; cur = cur.parent {
		for a, acc := range cur.accounts {
			if _, ok := seen[a]; ok {
				continue
			}
			seen[a] = struct{}{}
			fn(a, acc) //dcslint:ignore determinism visitors are order-independent by contract (MPT insert commutes; others fill maps or sort after)
		}
	}
}

// forEachStorage visits every live slot of addr exactly once, in
// UNSPECIFIED order; visitors must be order-independent (see
// forEachAccount).
func (s *State) forEachStorage(addr cryptoutil.Address, fn func(string, []byte)) {
	seen := make(map[string]struct{})
	for cur := s; cur != nil; cur = cur.parent {
		if m := cur.storage[addr]; m != nil {
			for k, v := range m {
				if _, ok := seen[k]; ok {
					continue
				}
				seen[k] = struct{}{}
				fn(k, v) //dcslint:ignore determinism visitors are order-independent by contract (storage-trie insert commutes; others fill maps or sort after)
			}
		}
		if d := cur.storageDel[addr]; d != nil {
			for k := range d {
				seen[k] = struct{}{} // shadow anything below
			}
		}
	}
}

// storageAddrs returns every address with storage writes anywhere in
// the layer chain, sorted so downstream iteration runs in the same
// order on every replica.
func (s *State) storageAddrs() []cryptoutil.Address {
	seen := make(map[cryptoutil.Address]struct{})
	for cur := s; cur != nil; cur = cur.parent {
		for a := range cur.storage {
			seen[a] = struct{}{}
		}
	}
	out := make([]cryptoutil.Address, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		return bytes.Compare(out[i][:], out[j][:]) < 0
	})
	return out
}

// ApplyTx applies one transaction, paying fees to proposer. Returns a
// receipt; a non-nil error means the transaction is invalid and must not
// be included in a block (receipts with OK=false are included failures,
// e.g. a contract that ran out of gas: the fee is still paid).
func (s *State) ApplyTx(tx *types.Transaction, proposer cryptoutil.Address) (*Receipt, error) {
	return s.applyTx(tx, proposer, false)
}

// ApplyTxDeferredFee applies one transaction WITHOUT crediting its fee to
// anyone. The optimistic parallel executor speculates with deferred fees
// so every transaction does not read-write the proposer account (which
// would make all of them conflict); it settles the fees on the block
// layer in transaction-index order at merge time. Everything else matches
// ApplyTx exactly.
func (s *State) ApplyTxDeferredFee(tx *types.Transaction) (*Receipt, error) {
	return s.applyTx(tx, cryptoutil.ZeroAddress, true)
}

func (s *State) applyTx(tx *types.Transaction, proposer cryptoutil.Address, deferFee bool) (*Receipt, error) {
	rec := &Receipt{TxID: tx.ID()}
	switch tx.Kind {
	case types.TxCoinbase:
		return nil, fmt.Errorf("%w: coinbase outside block application", ErrBadCoinbase)
	case types.TxTransfer, types.TxDeploy, types.TxInvoke:
	default:
		return nil, fmt.Errorf("%w: %v", ErrUnknownKind, tx.Kind)
	}
	if err := tx.Verify(); err != nil {
		return nil, fmt.Errorf("state: %w", err)
	}
	acc := s.Account(tx.From)
	if tx.Nonce != acc.Nonce {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrBadNonce, tx.Nonce, acc.Nonce)
	}
	cost, err := tx.Cost()
	if err != nil {
		return nil, fmt.Errorf("state: %w", err)
	}
	if acc.Balance < cost {
		return nil, fmt.Errorf("%w: %s has %d, tx costs %d", ErrInsufficientBalance, tx.From.Short(), acc.Balance, cost)
	}

	// Take cost and bump the nonce up front; contract failure reverts
	// contract effects but keeps the fee (gas is paid for work done).
	acc.Balance -= cost
	acc.Nonce++
	s.setAccount(tx.From, acc)
	if !deferFee {
		s.Credit(proposer, tx.Fee)
	}

	switch tx.Kind {
	case types.TxTransfer:
		s.Credit(tx.To, tx.Value)
		rec.OK = true
	case types.TxDeploy, types.TxInvoke:
		if s.executor == nil {
			// Refund value (not the fee) and report failure.
			s.Credit(tx.From, tx.Value)
			rec.Err = ErrNoExecutor.Error()
			return rec, nil
		}
		// Stage contract effects on a scratch diff layer; merge only on
		// success so a failed contract reverts by simply dropping the
		// layer (the cost debit and fee credit above stay on s).
		work := s.Copy()
		var err error
		if tx.Kind == types.TxDeploy {
			rec.ContractAddress, rec.GasUsed, err = s.executor.Deploy(work, tx)
			if err == nil {
				work.Credit(rec.ContractAddress, tx.Value) // endowment
			}
		} else {
			work.Credit(tx.To, tx.Value) // value transferred to the contract
			rec.GasUsed, err = s.executor.Invoke(work, tx)
		}
		if err != nil {
			// Drop every contract effect, then refund the undelivered value.
			rec.Err = err.Error()
			rec.ContractAddress = cryptoutil.ZeroAddress
			s.Credit(tx.From, tx.Value)
			return rec, nil
		}
		s.absorb(work)
		rec.OK = true
	}
	return rec, nil
}

// ApplyBlock applies a full block: the leading coinbase (whose value must
// equal expectedReward plus the block's total fees) followed by every
// user transaction. It mutates the state; callers copy first if they may
// need to roll back.
func (s *State) ApplyBlock(b *types.Block, expectedReward uint64) ([]*Receipt, error) {
	if _, err := CheckCoinbase(b, expectedReward); err != nil {
		return nil, err
	}
	cb := b.Txs[0]
	receipts := make([]*Receipt, 0, len(b.Txs))
	// The coinbase mints only the subsidy; fees reach the proposer as
	// each user transaction is applied (minting the full coinbase value
	// would double-count them).
	s.Credit(cb.To, expectedReward)
	receipts = append(receipts, &Receipt{TxID: cb.ID(), OK: true})
	for i, tx := range b.Txs[1:] {
		rec, err := s.ApplyTx(tx, b.Header.Proposer)
		if err != nil {
			return nil, fmt.Errorf("state: tx %d: %w", i+1, err)
		}
		receipts = append(receipts, rec)
	}
	return receipts, nil
}

// CheckCoinbase validates the block's coinbase shape — leading coinbase
// transaction whose value equals expectedReward plus the block's total
// fees (both sums overflow-checked), nonce equal to the block height,
// zero sender — and returns the total fees. It is the consensus-critical
// preamble shared by serial ApplyBlock and the parallel executor.
func CheckCoinbase(b *types.Block, expectedReward uint64) (uint64, error) {
	if len(b.Txs) == 0 || b.Txs[0].Kind != types.TxCoinbase {
		return 0, fmt.Errorf("%w: block must start with a coinbase", ErrBadCoinbase)
	}
	// The fee sum and the reward+fees total are checked adds: a block
	// stuffed with huge fees must not wrap the expected coinbase value
	// into range.
	var fees uint64
	for _, tx := range b.Txs[1:] {
		if tx.Kind == types.TxCoinbase {
			return 0, fmt.Errorf("%w: coinbase not at position 0", ErrBadCoinbase)
		}
		if fees+tx.Fee < fees {
			return 0, fmt.Errorf("%w: block fees overflow", ErrBadCoinbase)
		}
		fees += tx.Fee
	}
	cb := b.Txs[0]
	want := expectedReward + fees
	if want < expectedReward {
		return 0, fmt.Errorf("%w: reward %d + fees %d overflows", ErrBadCoinbase, expectedReward, fees)
	}
	if cb.Value != want {
		return 0, fmt.Errorf("%w: coinbase value %d, want reward %d + fees %d",
			ErrBadCoinbase, cb.Value, expectedReward, fees)
	}
	if cb.Nonce != b.Header.Height {
		return 0, fmt.Errorf("%w: coinbase nonce %d, want height %d", ErrBadCoinbase, cb.Nonce, b.Header.Height)
	}
	if !cb.From.IsZero() {
		return 0, fmt.Errorf("%w: coinbase sender must be the zero address", ErrBadCoinbase)
	}
	return fees, nil
}

// DirtyAddresses returns every address written through THIS diff layer
// (account record, storage slot, or storage delete), sorted. On a
// per-block state layer that is exactly the set of account-trie leaves
// the block may have changed; for a base layer it is every account.
func (s *State) DirtyAddresses() []cryptoutil.Address {
	seen := make(map[cryptoutil.Address]struct{}, len(s.accounts))
	for a := range s.accounts {
		seen[a] = struct{}{}
	}
	for a := range s.storage {
		seen[a] = struct{}{}
	}
	for a := range s.storageDel {
		seen[a] = struct{}{}
	}
	out := make([]cryptoutil.Address, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		return bytes.Compare(out[i][:], out[j][:]) < 0
	})
	return out
}

// Len returns the number of accounts with records.
func (s *State) Len() int {
	n := 0
	s.forEachAccount(func(cryptoutil.Address, Account) { n++ })
	return n
}

// Addresses returns all account addresses (order unspecified).
func (s *State) Addresses() []cryptoutil.Address {
	out := make([]cryptoutil.Address, 0, len(s.accounts))
	s.forEachAccount(func(a cryptoutil.Address, _ Account) {
		out = append(out, a)
	})
	return out
}

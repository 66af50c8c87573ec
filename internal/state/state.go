// Package state implements the account-model world state of the ledger:
// balances, nonces, contract code, and contract storage. State is
// committed to an authenticated Merkle Patricia trie so that every block
// header carries a verifiable state root (the Data layer of the paper's
// stack).
//
// States form copy-on-write diff layers over the committed trie: Copy
// returns an overlay that records only the accounts/slots written
// through it, and a read that misses the overlays is answered by the
// account trie of the nearest layer that holds one (account leaf, then
// the storage trie and code the leaf names), so no layer holds a flat
// copy of the state and copying a large state is O(1). A layer must be
// treated as frozen once it has children (the node freezes every
// per-block post-state after Commit); Compact makes that final and keeps
// a frozen layer's writes in a sorted form a third the size of its maps;
// Detach cuts a committed state loose from the layers under it.
package state

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/mpt"
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
	// ErrRead reports a trie read that failed under the state (see
	// State.Err): a fault of the node's storage, never of the
	// transaction or block being applied.
	ErrRead = errors.New("state: read failed")
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

// ForkableExecutor is implemented by executors that can be forked for
// speculative execution, any per-execution side state of a fork being
// merged back in commit order (the executors in this tree keep none). The optimistic parallel executor
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
// each node owns its state and copies it for speculative execution. A
// frozen state (one that is no longer written) may be read, copied and
// committed from several goroutines.
//
// A State is a write buffer over a committed trie: it holds only what
// was written through this layer, and a read that misses that goes down
// the parent chain until a layer that holds its account trie answers it
// (see commit.go), or the chain ends on base.
type State struct {
	parent *State
	// base is what lies under a parentless layer's own writes: the trie
	// of the state it was detached or loaded from, nil for nothing.
	base *mpt.Trie
	// w is what this layer wrote, hot or compacted (see writes). Atomic
	// because the node compacts frozen layers that readers may be walking.
	w        atomic.Pointer[writes]
	executor Executor
	track    *Access // non-nil only on speculation lanes (see Track)
	// memo is the commitment of the current contents; nil after any
	// write (see commit.go). Atomic because the node releases and adopts
	// tries of frozen states that readers are still walking.
	memo atomic.Pointer[memo]
	// err is the first trie read that failed through this layer (atomic:
	// deriving a released trie of a shared frozen state may latch it), and
	// readErrs (inherited by copies) counts such failures.
	err      atomic.Pointer[error]
	readErrs *atomic.Uint64
}

// New returns an empty state.
func New() *State {
	s := &State{}
	s.w.Store(newWrites())
	return s
}

// Load returns the state whose account trie has the given root in src
// (a node store). Nothing is read until the state is.
func Load(root cryptoutil.Hash, src mpt.NodeSource) *State {
	return detached(mpt.Load(root, 0, src))
}

// detached returns an unwritten parentless state over tr.
func detached(tr *mpt.Trie) *State {
	s := New()
	s.base = tr
	s.memo.Store(&memo{root: tr.RootHash(), trie: tr})
	return s
}

// Detach returns a state with the same contents as s that reads straight
// from s's account trie and refers to no layer of s's chain, so the
// layers below s can be collected once nothing else holds them. s itself
// is unchanged. If the trie cannot be derived (see Err) s is returned.
func (s *State) Detach() *State {
	tr := s.AccountTrie()
	if tr == nil {
		return s
	}
	ns := detached(tr)
	ns.executor, ns.readErrs = s.executor, s.readErrs
	return ns
}

// SetExecutor installs the contract executor used for deploy/invoke
// transactions.
func (s *State) SetExecutor(e Executor) { s.executor = e }

// Executor returns the installed contract executor, if any.
func (s *State) Executor() Executor { return s.executor }

// CountReadErrors makes this state and every state copied or detached
// from it add one to c for each failed trie read.
func (s *State) CountReadErrors(c *atomic.Uint64) { s.readErrs = c }

// Err returns the first trie read that failed through this layer: an
// I/O error, or a node the store no longer holds. What the layer
// answered after that cannot be trusted (a failed read looks like an
// absent account), so ApplyTx, ApplyBlock and Commit report it, and a
// caller that reads directly checks it when done. Errors of child layers
// reach this one through Absorb only.
func (s *State) Err() error {
	if p := s.err.Load(); p != nil {
		return *p
	}
	return nil
}

// fail counts a failed trie read and latches it if it is the first.
func (s *State) fail(err error) {
	if err == nil {
		return
	}
	if s.readErrs != nil {
		s.readErrs.Add(1)
	}
	s.latch(fmt.Errorf("%w: %w", ErrRead, err))
}

// latch records err, a read error of this layer or of one folded into
// it, unless one is recorded already.
func (s *State) latch(err error) {
	if err != nil {
		s.err.CompareAndSwap(nil, &err)
	}
}

// Under returns the trie that answers a read missing every layer's own
// writes (nil for an empty one), and how many layers such a read visits
// on the way. It derives nothing: whoever prunes the trie's node source
// asks here what a retained state still reads from.
func (s *State) Under() (tr *mpt.Trie, layers int) {
	for cur, d := s, 1; ; cur, d = cur.parent, d+1 {
		if tr, done := cur.under(); done {
			return tr, d
		}
	}
}

// Track attaches an access footprint to this layer: every account and
// storage read or write through it (and through child layers it spawns)
// is recorded into a. Pass nil to stop tracking.
func (s *State) Track(a *Access) { s.track = a }

// under tells a read that missed cur's own writes where to go next: to
// the returned trie (nil = empty) when done, else to cur.parent.
func (cur *State) under() (tr *mpt.Trie, done bool) {
	if m := cur.memo.Load(); m != nil && m.trie != nil {
		return m.trie, true
	}
	return cur.base, cur.parent == nil
}

// Account returns the record for addr (zero value if absent).
func (s *State) Account(addr cryptoutil.Address) Account {
	acc, _ := s.lookupAccount(addr)
	return acc
}

// lookupAccount returns addr's record and whether one exists, recording
// the read on tracked layers. Every account read of execution funnels
// through here.
func (s *State) lookupAccount(addr cryptoutil.Address) (Account, bool) {
	if s.track != nil {
		s.track.ReadAccounts[addr] = struct{}{}
	}
	acc, ok, err := s.account(addr)
	s.fail(err)
	return acc, ok
}

// account is lookupAccount without the footprint and without latching
// the error: Commit reads through it, and a commitment is not part of
// any transaction's read set.
func (s *State) account(addr cryptoutil.Address) (Account, bool, error) {
	for cur := s; ; cur = cur.parent {
		if acc, ok := cur.w.Load().account(addr); ok {
			return acc, true, nil
		}
		if tr, done := cur.under(); done {
			lf, ok, err := readLeaf(tr, addr)
			return lf.Account, ok, err
		}
	}
}

// setAccount is the single funnel for account-record writes, so tracked
// layers capture a complete write set.
func (s *State) setAccount(addr cryptoutil.Address, acc Account) {
	if s.track != nil {
		s.track.WriteAccounts[addr] = struct{}{}
	}
	w := s.hot()
	s.memo.Store(nil)
	w.accounts[addr] = acc
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

// codeHash is the content address of a contract's code.
func codeHash(code []byte) cryptoutil.Hash {
	return cryptoutil.HashBytes([]byte("state/code"), code)
}

// SetCode stores contract code and binds it to addr.
func (s *State) SetCode(addr cryptoutil.Address, code []byte) {
	h := codeHash(code)
	s.hot().code[h] = append([]byte(nil), code...)
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
	c, tr := s.layerCode(h)
	if c == nil {
		lf, _, err := readLeaf(tr, addr)
		if err == nil {
			c, err = lf.code(tr)
		}
		s.fail(err)
	}
	return c
}

// layerCode returns the code with hash h if a layer from s down to the
// first one that holds a trie stored it, and that trie.
func (s *State) layerCode(h cryptoutil.Hash) ([]byte, *mpt.Trie) {
	for cur := s; ; cur = cur.parent {
		if c, ok := cur.w.Load().code[h]; ok {
			return c, nil
		}
		if tr, done := cur.under(); done {
			return nil, tr
		}
	}
}

// IsContract reports whether addr has code.
func (s *State) IsContract(addr cryptoutil.Address) bool {
	return !s.Account(addr).Code.IsZero()
}

// SetStorage writes a contract storage slot. The slots of an address
// are committed under its account record, so the record must exist by
// the time the layer is committed (every executor path creates it
// first); slots of an address that never gets one are not kept.
func (s *State) SetStorage(addr cryptoutil.Address, key, value []byte) {
	k := SlotKey{addr, string(key)}
	if s.track != nil {
		s.track.WriteSlots[k] = struct{}{}
	}
	w := s.hot()
	s.memo.Store(nil)
	w.slots[k] = append([]byte(nil), value...)
}

// Storage reads a contract storage slot. Every slot read of execution
// funnels through here.
func (s *State) Storage(addr cryptoutil.Address, key []byte) []byte {
	k := SlotKey{addr, string(key)}
	if s.track != nil {
		s.track.ReadSlots[k] = struct{}{}
	}
	v, err := s.slot(k)
	s.fail(err)
	return v
}

// slot returns the live value of one storage slot, without recording a
// read or latching an error.
func (s *State) slot(k SlotKey) ([]byte, error) {
	for cur := s; ; cur = cur.parent {
		if v, ok := cur.w.Load().slot(k); ok {
			return v, nil
		}
		if tr, done := cur.under(); done {
			lf, _, err := readLeaf(tr, k.Addr)
			st := lf.storage(tr)
			if st == nil {
				return nil, err
			}
			v, _, err := st.TryGet([]byte(k.Key))
			return v, err
		}
	}
}

// Copy returns a copy-on-write diff layer over s: writes go to the new
// layer, reads fall through. The receiver must not be mutated while the
// returned layer is in use (treat it as frozen); this is O(1).
func (s *State) Copy() *State {
	c := New()
	c.parent, c.executor, c.track, c.readErrs = s, s.executor, s.track, s.readErrs
	return c
}

// Absorb folds a child diff layer (created by Copy of s) back into s:
// the success path of speculative contract execution, where effects are
// staged on the child and only merged when the contract completes, and
// of the optimistic parallel executor (internal/exec), which absorbs
// non-conflicting speculation lanes into the block layer in
// transaction-index order.
func (s *State) Absorb(child *State) {
	w, cw := s.hot(), child.w.Load()
	s.memo.Store(nil)
	s.latch(child.Err())
	cw.eachAccount(func(a cryptoutil.Address, acc Account) { w.accounts[a] = acc })
	for h, c := range cw.code {
		w.code[h] = c
	}
	cw.eachSlot(func(k SlotKey, v []byte) { w.slots[k] = v })
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

func (s *State) applyTx(tx *types.Transaction, proposer cryptoutil.Address, deferFee bool) (rec *Receipt, err error) {
	defer func() {
		if rerr := s.Err(); rerr != nil { // nothing computed over a failed read is valid
			rec, err = nil, rerr
		}
	}()
	rec = &Receipt{TxID: tx.ID()}
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
		s.latch(work.Err()) // the contract's outcome was computed over it
		if err != nil {
			// Drop every contract effect, then refund the undelivered value.
			rec.Err = err.Error()
			rec.ContractAddress = cryptoutil.ZeroAddress
			s.Credit(tx.From, tx.Value)
			return rec, nil
		}
		s.Absorb(work)
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
	if err := s.Err(); err != nil {
		return nil, err
	}
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
// (account record or storage slot), sorted. On a per-block state layer
// that is exactly the set of account-trie leaves the block may have
// changed.
func (s *State) DirtyAddresses() []cryptoutil.Address {
	w := s.w.Load()
	seen := make(map[cryptoutil.Address]struct{})
	w.eachAccount(func(a cryptoutil.Address, _ Account) { seen[a] = struct{}{} })
	w.eachSlot(func(k SlotKey, _ []byte) { seen[k.Addr] = struct{}{} })
	out := make([]cryptoutil.Address, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		return bytes.Compare(out[i][:], out[j][:]) < 0
	})
	return out
}

// Len returns the number of accounts with records. It visits them all.
func (s *State) Len() int { return len(s.Addresses()) }

// Addresses returns all account addresses, sorted. It commits the state
// and visits every leaf; a failed read (see Err) cuts the list short.
func (s *State) Addresses() []cryptoutil.Address {
	var out []cryptoutil.Address
	s.fail(s.leaves(func(addr cryptoutil.Address, _ leaf, _ *mpt.Trie) error {
		out = append(out, addr)
		return nil
	}))
	return out
}

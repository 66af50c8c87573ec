// Package pos implements proof-of-stake block proposal (Section 2.4,
// PeerCoin-style): time is divided into slots, and each slot's proposer
// is drawn pseudo-randomly with probability proportional to committed
// stake ("follow the coin"). Forging a block costs one signature instead
// of a hash race, which is the energy argument of Section 5.4; safety
// against equivocation is restored economically by slashing (Slasher).
package pos

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"dcsledger/internal/consensus"
	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/simclock"
	"dcsledger/internal/types"
)

// Package errors, matchable with errors.Is.
var (
	ErrNoStake      = errors.New("pos: validator has no stake")
	ErrEquivocation = errors.New("pos: proposer equivocated in slot")
)

// Config parameterizes the PoS engine.
type Config struct {
	// SlotInterval is the wall-clock length of one proposal slot.
	SlotInterval time.Duration
	// Stakes is the validator set with committed stakes.
	Stakes map[cryptoutil.Address]uint64
}

// Engine is a per-node PoS instance.
type Engine struct {
	cfg   Config
	clock simclock.Clock
	key   *cryptoutil.KeyPair // nil for verify-only instances

	order []cryptoutil.Address // validators sorted by address
	cum   []uint64             // cumulative stakes aligned with order
	total uint64
}

var _ consensus.Engine = (*Engine)(nil)

// New creates a PoS engine. key may be nil for observer nodes that only
// verify.
func New(cfg Config, clock simclock.Clock, key *cryptoutil.KeyPair) *Engine {
	e := &Engine{cfg: cfg, clock: clock, key: key}
	if e.cfg.SlotInterval <= 0 {
		e.cfg.SlotInterval = 10 * time.Second
	}
	for a := range cfg.Stakes {
		e.order = append(e.order, a)
	}
	sort.Slice(e.order, func(i, j int) bool {
		return bytes.Compare(e.order[i][:], e.order[j][:]) < 0
	})
	e.cum = make([]uint64, len(e.order))
	for i, a := range e.order {
		e.total += cfg.Stakes[a]
		e.cum[i] = e.total
	}
	return e
}

// Name implements consensus.Engine.
func (e *Engine) Name() string { return "pos" }

// TotalStake returns the sum of all committed stake.
func (e *Engine) TotalStake() uint64 { return e.total }

// SlotAt returns the slot number containing time t.
func (e *Engine) SlotAt(t time.Time) uint64 {
	ns := t.UnixNano()
	if ns < 0 {
		return 0
	}
	return uint64(ns) / uint64(e.cfg.SlotInterval)
}

// slotStart returns the instant slot s begins.
func (e *Engine) slotStart(s uint64) time.Time {
	return time.Unix(0, int64(s)*int64(e.cfg.SlotInterval))
}

// ProposerForSlot returns the stake-weighted pseudo-random proposer for
// a slot on top of the given parent. The draw is verifiable: any peer
// recomputes it from public data.
func (e *Engine) ProposerForSlot(parent cryptoutil.Hash, slot uint64) (cryptoutil.Address, error) {
	if e.total == 0 {
		return cryptoutil.ZeroAddress, ErrNoStake
	}
	seed := cryptoutil.HashBytes([]byte("pos/slot"), parent[:], u64bytes(slot))
	r := binary.BigEndian.Uint64(seed[:8]) % e.total
	// First validator whose cumulative stake exceeds r.
	i := sort.Search(len(e.cum), func(i int) bool { return e.cum[i] > r })
	return e.order[i], nil
}

// Prepare implements consensus.Engine: PoS blocks carry unit difficulty
// so longest-chain weight equals chain length.
func (e *Engine) Prepare(hdr *types.BlockHeader, parent *types.Block) error {
	hdr.Difficulty = 1
	return nil
}

// Delay implements consensus.Engine: time until the start of the next
// slot (strictly after the parent's slot) in which self is the drawn
// proposer.
func (e *Engine) Delay(parent *types.Block, self cryptoutil.Address) (time.Duration, bool) {
	if e.cfg.Stakes[self] == 0 {
		return 0, false
	}
	now := e.clock.Now()
	startSlot := e.SlotAt(now) + 1
	if pt := e.SlotAt(time.Unix(0, parent.Header.Time)); pt >= startSlot {
		startSlot = pt + 1
	}
	parentHash := parent.Hash()
	// Scan a bounded horizon of future slots for one we own.
	horizon := uint64(64 * (len(e.order) + 1))
	for s := startSlot; s < startSlot+horizon; s++ {
		proposer, err := e.ProposerForSlot(parentHash, s)
		if err != nil {
			return 0, false
		}
		if proposer == self {
			return e.slotStart(s).Sub(now), true
		}
	}
	return 0, false
}

// Seal implements consensus.Engine: stamps the block into its slot and
// signs the header.
func (e *Engine) Seal(b *types.Block, parent *types.Block) error {
	if e.key == nil {
		return fmt.Errorf("%w: engine has no signing key", consensus.ErrNotProposer)
	}
	slot := e.SlotAt(time.Unix(0, b.Header.Time))
	proposer, err := e.ProposerForSlot(parent.Hash(), slot)
	if err != nil {
		return err
	}
	if proposer != e.key.Address() || b.Header.Proposer != proposer {
		return fmt.Errorf("%w: slot %d belongs to %s", consensus.ErrNotProposer, slot, proposer.Short())
	}
	b.Header.Extra = nil
	digest := sealDigest(&b.Header)
	sig, err := e.key.Sign(digest)
	if err != nil {
		return fmt.Errorf("pos: %w", err)
	}
	b.Header.Extra = encodeSeal(e.key.PublicKey(), sig)
	return nil
}

// VerifySeal implements consensus.Engine.
func (e *Engine) VerifySeal(b *types.Block, parent *types.Block) error {
	if b.Header.Time < parent.Header.Time {
		return fmt.Errorf("%w: block time precedes parent", consensus.ErrBadTimestamp)
	}
	slot := e.SlotAt(time.Unix(0, b.Header.Time))
	if parentSlot := e.SlotAt(time.Unix(0, parent.Header.Time)); parent.Header.Height > 0 && slot <= parentSlot {
		return fmt.Errorf("%w: slot %d not after parent slot %d", consensus.ErrBadTimestamp, slot, parentSlot)
	}
	want, err := e.ProposerForSlot(parent.Hash(), slot)
	if err != nil {
		return err
	}
	if b.Header.Proposer != want {
		return fmt.Errorf("%w: proposer %s, slot %d belongs to %s",
			consensus.ErrInvalidSeal, b.Header.Proposer.Short(), slot, want.Short())
	}
	pub, sig, err := decodeSeal(b.Header.Extra)
	if err != nil {
		return err
	}
	if cryptoutil.PubKeyToAddress(pub) != b.Header.Proposer {
		return fmt.Errorf("%w: seal key does not match proposer", consensus.ErrInvalidSeal)
	}
	hdr := b.Header
	hdr.Extra = nil
	if err := cryptoutil.Verify(pub, sealDigest(&hdr), sig); err != nil {
		return fmt.Errorf("%w: bad proposer signature: %w", consensus.ErrInvalidSeal, err)
	}
	return nil
}

func sealDigest(h *types.BlockHeader) cryptoutil.Hash {
	return cryptoutil.HashBytes([]byte("pos/seal"), h.Encode())
}

// encodeSeal renders the seal: the proposer's key, then its signature,
// both fixed-width.
func encodeSeal(pub, sig []byte) []byte {
	return append(append(make([]byte, 0, len(pub)+len(sig)), pub...), sig...)
}

func decodeSeal(extra []byte) (pub, sig []byte, err error) {
	if len(extra) != cryptoutil.PubKeyLen+cryptoutil.SigLen {
		return nil, nil, fmt.Errorf("%w: seal of %d bytes, want %d", consensus.ErrInvalidSeal, len(extra), cryptoutil.PubKeyLen+cryptoutil.SigLen)
	}
	return extra[:cryptoutil.PubKeyLen], extra[cryptoutil.PubKeyLen:], nil
}

func u64bytes(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// Evidence records a proven equivocation: two distinct sealed headers by
// the same proposer for the same parent and slot.
type Evidence struct {
	Proposer cryptoutil.Address
	Slot     uint64
	BlockA   cryptoutil.Hash
	BlockB   cryptoutil.Hash
}

// Slasher detects equivocation and burns the offender's stake — the
// economic deterrent that lets PoS drop the hash race without giving up
// safety. It is safe for concurrent use.
type Slasher struct {
	mu     sync.Mutex
	engine *Engine
	seen   map[string]cryptoutil.Hash
	stakes map[cryptoutil.Address]uint64
}

// NewSlasher creates a slasher over a copy of the given stake table.
func NewSlasher(e *Engine, stakes map[cryptoutil.Address]uint64) *Slasher {
	cp := make(map[cryptoutil.Address]uint64, len(stakes))
	for a, s := range stakes {
		cp[a] = s
	}
	return &Slasher{
		engine: e,
		seen:   make(map[string]cryptoutil.Hash),
		stakes: cp,
	}
}

// Observe records a sealed header. If the proposer already sealed a
// different block for the same parent/slot, the offender's remaining
// stake is burned and the evidence returned.
func (s *Slasher) Observe(parent cryptoutil.Hash, hdr *types.BlockHeader) (*Evidence, error) {
	slot := s.engine.SlotAt(time.Unix(0, hdr.Time))
	key := fmt.Sprintf("%s/%d/%s", hdr.Proposer, slot, parent)
	h := hdr.Hash()
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, ok := s.seen[key]
	if !ok {
		s.seen[key] = h
		return nil, nil
	}
	if prev == h {
		return nil, nil
	}
	s.stakes[hdr.Proposer] = 0
	return &Evidence{Proposer: hdr.Proposer, Slot: slot, BlockA: prev, BlockB: h},
		fmt.Errorf("%w: %s at slot %d", ErrEquivocation, hdr.Proposer.Short(), slot)
}

// StakeOf returns the current (post-slashing) stake of addr.
func (s *Slasher) StakeOf(addr cryptoutil.Address) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stakes[addr]
}

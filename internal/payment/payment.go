// Package payment implements off-chain payment channels in the style of
// the Lightning network (Sections 5.2 and 5.4, [30]): two parties lock
// funds on-chain once, exchange any number of mutually signed balance
// updates off-chain, and settle on-chain once — trading a little
// decentralization (a direct counterparty) for orders of magnitude in
// throughput, which experiment E9 measures. Multi-hop payments are
// forwarded across a channel path with hash-time-locked commitments.
package payment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/simclock"
	"dcsledger/internal/state"
)

// Channel errors, matchable with errors.Is.
var (
	ErrInsufficient   = errors.New("payment: insufficient channel balance")
	ErrBadUpdate      = errors.New("payment: invalid channel update")
	ErrStaleUpdate    = errors.New("payment: update older than known state")
	ErrClosed         = errors.New("payment: channel closed")
	ErrDisputeOpen    = errors.New("payment: dispute already open")
	ErrNoDispute      = errors.New("payment: no dispute to settle")
	ErrChallengeOver  = errors.New("payment: challenge period elapsed")
	ErrChallengeLive  = errors.New("payment: challenge period still running")
	ErrWrongPreimage  = errors.New("payment: preimage does not match hash lock")
	ErrBrokenRoute    = errors.New("payment: route hop lacks capacity")
	ErrNotParticipant = errors.New("payment: signer is not a channel party")
)

// Update is one signed off-chain state: balances at sequence Seq. Both
// signatures make it enforceable on-chain.
type Update struct {
	ChannelID cryptoutil.Hash `json:"channelId"`
	Seq       uint64          `json:"seq"`
	BalanceA  uint64          `json:"balanceA"`
	BalanceB  uint64          `json:"balanceB"`
	SigA      []byte          `json:"sigA"`
	SigB      []byte          `json:"sigB"`
}

func (u *Update) digest() cryptoutil.Hash {
	var buf [24]byte
	binary.BigEndian.PutUint64(buf[0:], u.Seq)
	binary.BigEndian.PutUint64(buf[8:], u.BalanceA)
	binary.BigEndian.PutUint64(buf[16:], u.BalanceB)
	return cryptoutil.HashBytes([]byte("payment/update"), u.ChannelID[:], buf[:])
}

// Channel is one two-party payment channel. The struct is shared by
// both parties in simulations; each party signs with its own key.
type Channel struct {
	id       cryptoutil.Hash
	escrow   cryptoutil.Address
	keyA     *cryptoutil.KeyPair
	keyB     *cryptoutil.KeyPair
	capacity uint64
	latest   Update
	closed   bool

	// dispute state (unilateral close)
	disputeUpdate *Update
	disputeEnds   time.Time

	payments uint64
}

// Open locks depositA + depositB on-chain into the channel escrow and
// returns the channel — the single on-chain footprint until close.
func Open(st *state.State, keyA, keyB *cryptoutil.KeyPair, depositA, depositB uint64) (*Channel, error) {
	id := cryptoutil.HashBytes([]byte("payment/channel"),
		keyA.Address().Bytes(), keyB.Address().Bytes(),
		u64(depositA), u64(depositB))
	escrow := cryptoutil.AddressFromHash(id)
	if err := st.Debit(keyA.Address(), depositA); err != nil {
		return nil, fmt.Errorf("payment: fund A: %w", err)
	}
	if err := st.Debit(keyB.Address(), depositB); err != nil {
		// Roll back A's deposit.
		st.Credit(keyA.Address(), depositA)
		return nil, fmt.Errorf("payment: fund B: %w", err)
	}
	st.Credit(escrow, depositA+depositB)
	c := &Channel{
		id:       id,
		escrow:   escrow,
		keyA:     keyA,
		keyB:     keyB,
		capacity: depositA + depositB,
		latest: Update{
			ChannelID: id,
			BalanceA:  depositA,
			BalanceB:  depositB,
		},
	}
	if err := c.sign(&c.latest); err != nil {
		return nil, err
	}
	return c, nil
}

// ID returns the channel identifier.
func (c *Channel) ID() cryptoutil.Hash { return c.id }

// Balances returns the latest off-chain balances.
func (c *Channel) Balances() (a, b uint64) { return c.latest.BalanceA, c.latest.BalanceB }

// Payments returns how many off-chain transfers the channel carried.
func (c *Channel) Payments() uint64 { return c.payments }

// Pay moves amount within the channel (fromA: A→B, else B→A),
// producing and retaining a new co-signed update. This is the entire
// cost of an off-chain payment: two signatures, no blocks.
func (c *Channel) Pay(fromA bool, amount uint64) (Update, error) {
	if c.closed {
		return Update{}, ErrClosed
	}
	next := c.latest
	next.Seq++
	if fromA {
		if next.BalanceA < amount {
			return Update{}, fmt.Errorf("%w: A has %d", ErrInsufficient, next.BalanceA)
		}
		next.BalanceA -= amount
		next.BalanceB += amount
	} else {
		if next.BalanceB < amount {
			return Update{}, fmt.Errorf("%w: B has %d", ErrInsufficient, next.BalanceB)
		}
		next.BalanceB -= amount
		next.BalanceA += amount
	}
	if err := c.sign(&next); err != nil {
		return Update{}, err
	}
	c.latest = next
	c.payments++
	return next, nil
}

func (c *Channel) sign(u *Update) error {
	d := u.digest()
	sigA, err := c.keyA.Sign(d)
	if err != nil {
		return fmt.Errorf("payment: %w", err)
	}
	sigB, err := c.keyB.Sign(d)
	if err != nil {
		return fmt.Errorf("payment: %w", err)
	}
	u.SigA, u.SigB = sigA, sigB
	return nil
}

// VerifyUpdate checks an update's signatures and conservation of the
// channel capacity.
func (c *Channel) VerifyUpdate(u Update) error {
	if u.ChannelID != c.id {
		return fmt.Errorf("%w: wrong channel", ErrBadUpdate)
	}
	if u.BalanceA+u.BalanceB != c.capacity {
		return fmt.Errorf("%w: balances do not preserve capacity", ErrBadUpdate)
	}
	d := u.digest()
	if cryptoutil.Verify(c.keyA.PublicKey(), d, u.SigA) != nil ||
		cryptoutil.Verify(c.keyB.PublicKey(), d, u.SigB) != nil {
		return fmt.Errorf("%w: bad signatures", ErrBadUpdate)
	}
	return nil
}

// CooperativeClose settles the latest state on-chain immediately.
func (c *Channel) CooperativeClose(st *state.State) error {
	if c.closed {
		return ErrClosed
	}
	if err := c.VerifyUpdate(c.latest); err != nil {
		return err
	}
	return c.settle(st, c.latest)
}

// UnilateralClose starts a dispute with a (possibly stale) update. The
// counterparty has challengePeriod to present a newer one.
func (c *Channel) UnilateralClose(clock simclock.Clock, u Update, challengePeriod time.Duration) error {
	if c.closed {
		return ErrClosed
	}
	if c.disputeUpdate != nil {
		return ErrDisputeOpen
	}
	if err := c.VerifyUpdate(u); err != nil {
		return err
	}
	cp := u
	c.disputeUpdate = &cp
	c.disputeEnds = clock.Now().Add(challengePeriod)
	return nil
}

// Challenge replaces the disputed update with a strictly newer one
// before the period ends — the defense against stale-state fraud.
func (c *Channel) Challenge(clock simclock.Clock, u Update) error {
	if c.disputeUpdate == nil {
		return ErrNoDispute
	}
	if clock.Now().After(c.disputeEnds) {
		return ErrChallengeOver
	}
	if err := c.VerifyUpdate(u); err != nil {
		return err
	}
	if u.Seq <= c.disputeUpdate.Seq {
		return fmt.Errorf("%w: seq %d <= %d", ErrStaleUpdate, u.Seq, c.disputeUpdate.Seq)
	}
	cp := u
	c.disputeUpdate = &cp
	return nil
}

// SettleDispute finalizes a unilateral close after the challenge period.
func (c *Channel) SettleDispute(st *state.State, clock simclock.Clock) error {
	if c.closed {
		return ErrClosed
	}
	if c.disputeUpdate == nil {
		return ErrNoDispute
	}
	if !clock.Now().After(c.disputeEnds) {
		return ErrChallengeLive
	}
	return c.settle(st, *c.disputeUpdate)
}

func (c *Channel) settle(st *state.State, u Update) error {
	if err := st.Debit(c.escrow, c.capacity); err != nil {
		return fmt.Errorf("payment: settle: %w", err)
	}
	st.Credit(c.keyA.Address(), u.BalanceA)
	st.Credit(c.keyB.Address(), u.BalanceB)
	c.closed = true
	return nil
}

// Closed reports whether the channel has settled on-chain.
func (c *Channel) Closed() bool { return c.closed }

// HashLock derives the lock for a payment secret.
func HashLock(secret []byte) cryptoutil.Hash {
	return cryptoutil.HashBytes([]byte("payment/htlc"), secret)
}

// RoutePayment forwards amount across a path of channels using a
// hash-time-locked commitment: every hop is conditioned on the same
// lock, the recipient reveals the secret, and all hops settle
// atomically. directions[i] is true when hop i pays A→B.
func RoutePayment(path []*Channel, directions []bool, amount uint64, secret []byte, lock cryptoutil.Hash) error {
	if len(path) == 0 || len(path) != len(directions) {
		return fmt.Errorf("%w: empty or mismatched path", ErrBrokenRoute)
	}
	if HashLock(secret) != lock {
		return ErrWrongPreimage
	}
	// Capacity check along the whole route before committing any hop —
	// the atomicity the HTLC construction provides.
	for i, ch := range path {
		a, b := ch.Balances()
		available := b
		if directions[i] {
			available = a
		}
		if available < amount {
			return fmt.Errorf("%w: hop %d has %d, needs %d", ErrBrokenRoute, i, available, amount)
		}
		if ch.Closed() {
			return fmt.Errorf("%w: hop %d closed", ErrBrokenRoute, i)
		}
	}
	for i, ch := range path {
		if _, err := ch.Pay(directions[i], amount); err != nil {
			return fmt.Errorf("payment: hop %d: %w", i, err)
		}
	}
	return nil
}

func u64(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

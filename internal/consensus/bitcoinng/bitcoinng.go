// Package bitcoinng implements the Bitcoin-NG hybrid of Section 2.4
// (Eyal et al., NSDI'16): proof-of-work key blocks elect a leader, who
// then streams signed microblocks carrying transactions until the next
// key block. Ordering capacity thus decouples from the slow PoW
// interval — the throughput/latency comparison experiment E7
// regenerates the paper's claim with SimulateNG vs SimulateNakamoto.
package bitcoinng

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/types"
)

// Package errors, matchable with errors.Is.
var (
	ErrNotLeader   = errors.New("bitcoinng: microblock not signed by current leader")
	ErrBadSig      = errors.New("bitcoinng: invalid microblock signature")
	ErrBrokenChain = errors.New("bitcoinng: microblock does not extend the tip")
)

// Microblock is a leader-signed transaction batch between key blocks.
type Microblock struct {
	Prev     cryptoutil.Hash      `json:"prev"` // previous micro- or key-block hash
	KeyBlock cryptoutil.Hash      `json:"keyBlock"`
	Index    uint64               `json:"index"`
	Time     int64                `json:"time"`
	Txs      []*types.Transaction `json:"txs"`
	PubKey   []byte               `json:"pubKey"`
	Sig      []byte               `json:"sig"`
}

// SigningDigest covers everything except the signature fields.
func (m *Microblock) SigningDigest() cryptoutil.Hash {
	var buf bytes.Buffer
	buf.Write(m.Prev[:])
	buf.Write(m.KeyBlock[:])
	var b8 [8]byte
	binary.BigEndian.PutUint64(b8[:], m.Index)
	buf.Write(b8[:])
	binary.BigEndian.PutUint64(b8[:], uint64(m.Time))
	buf.Write(b8[:])
	for _, tx := range m.Txs {
		id := tx.ID()
		buf.Write(id[:])
	}
	return cryptoutil.HashBytes([]byte("bitcoinng/micro"), buf.Bytes())
}

// ID returns the microblock identifier.
func (m *Microblock) ID() cryptoutil.Hash {
	d := m.SigningDigest()
	return cryptoutil.HashBytes([]byte("bitcoinng/microid"), d[:], m.Sig)
}

// Sign attaches the leader's signature.
func (m *Microblock) Sign(k *cryptoutil.KeyPair) error {
	sig, err := k.Sign(m.SigningDigest())
	if err != nil {
		return fmt.Errorf("bitcoinng: %w", err)
	}
	m.PubKey = k.PublicKey()
	m.Sig = sig
	return nil
}

// Verify checks the microblock against the current leader (the key
// block's proposer) and the expected tip it must extend.
func (m *Microblock) Verify(leader cryptoutil.Address, tip cryptoutil.Hash) error {
	if m.Prev != tip {
		return fmt.Errorf("%w: prev %s, tip %s", ErrBrokenChain, m.Prev.Short(), tip.Short())
	}
	if cryptoutil.PubKeyToAddress(m.PubKey) != leader {
		return fmt.Errorf("%w: signed by %s", ErrNotLeader, cryptoutil.PubKeyToAddress(m.PubKey).Short())
	}
	if err := cryptoutil.Verify(m.PubKey, m.SigningDigest(), m.Sig); err != nil {
		return fmt.Errorf("%w: %w", ErrBadSig, err)
	}
	return nil
}

// Epoch tracks one leader's reign: the key block that elected it and
// the microblock tip.
type Epoch struct {
	Leader    cryptoutil.Address
	KeyBlock  cryptoutil.Hash
	tip       cryptoutil.Hash
	nextIndex uint64
}

// NewEpoch starts an epoch at a freshly mined key block.
func NewEpoch(keyBlock *types.Block) *Epoch {
	h := keyBlock.Hash()
	return &Epoch{Leader: keyBlock.Header.Proposer, KeyBlock: h, tip: h}
}

// Tip returns the hash new microblocks must extend.
func (e *Epoch) Tip() cryptoutil.Hash { return e.tip }

// Issue builds and signs the next microblock of this epoch.
func (e *Epoch) Issue(k *cryptoutil.KeyPair, now int64, txs []*types.Transaction) (*Microblock, error) {
	if k.Address() != e.Leader {
		return nil, fmt.Errorf("%w: %s is not the epoch leader", ErrNotLeader, k.Address().Short())
	}
	m := &Microblock{
		Prev:     e.tip,
		KeyBlock: e.KeyBlock,
		Index:    e.nextIndex,
		Time:     now,
		Txs:      txs,
	}
	if err := m.Sign(k); err != nil {
		return nil, err
	}
	return m, nil
}

// Accept validates a microblock and advances the epoch tip.
func (e *Epoch) Accept(m *Microblock) error {
	if err := m.Verify(e.Leader, e.tip); err != nil {
		return err
	}
	if m.Index != e.nextIndex {
		return fmt.Errorf("%w: index %d, want %d", ErrBrokenChain, m.Index, e.nextIndex)
	}
	e.tip = m.ID()
	e.nextIndex++
	return nil
}

// SimConfig parameterizes the E7 comparison simulation.
type SimConfig struct {
	// KeyInterval is the expected PoW key-block interval.
	KeyInterval time.Duration
	// MicroInterval is the leader's microblock period (NG only).
	MicroInterval time.Duration
	// TxRate is the Poisson transaction arrival rate (tx/second).
	TxRate float64
	// MicroCap bounds transactions per microblock.
	MicroCap int
	// BlockCap bounds transactions per key block (Nakamoto mode).
	BlockCap int
	// Duration is the simulated span.
	Duration time.Duration
	// Seed drives the randomness.
	Seed int64
}

// Result aggregates one simulation run.
type Result struct {
	Committed     int
	ThroughputTPS float64
	MeanLatency   time.Duration
	KeyBlocks     int
	Microblocks   int
}

// SimulateNG runs the Bitcoin-NG commit process: transactions commit at
// each microblock (every MicroInterval), bounded by MicroCap.
func SimulateNG(cfg SimConfig) Result {
	return simulate(cfg, cfg.MicroInterval, cfg.MicroCap, true)
}

// SimulateNakamoto runs the plain Nakamoto process at the same key-block
// interval: transactions only commit when a key block is mined.
func SimulateNakamoto(cfg SimConfig) Result {
	return simulate(cfg, 0, cfg.BlockCap, false)
}

func simulate(cfg SimConfig, microEvery time.Duration, perCommit int, ng bool) Result {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var (
		res     Result
		pending []time.Duration // arrival times of queued txs
		now     time.Duration
		nextTx  = expDur(rng, time.Duration(float64(time.Second)/cfg.TxRate))
		nextKey = expDur(rng, cfg.KeyInterval)
		nextMic = microEvery
		totLat  time.Duration
	)
	commit := func(at time.Duration, limit int) {
		n := len(pending)
		if limit > 0 && n > limit {
			n = limit
		}
		for _, arr := range pending[:n] {
			totLat += at - arr
			res.Committed++
		}
		pending = pending[n:]
	}
	for now < cfg.Duration {
		// Next event: tx arrival, key block, or microblock.
		next := nextTx
		if nextKey < next {
			next = nextKey
		}
		if ng && nextMic < next {
			next = nextMic
		}
		now = next
		switch {
		case now == nextTx:
			pending = append(pending, now)
			nextTx = now + expDur(rng, time.Duration(float64(time.Second)/cfg.TxRate))
		case now == nextKey:
			res.KeyBlocks++
			if !ng {
				commit(now, perCommit)
			}
			nextKey = now + expDur(rng, cfg.KeyInterval)
		default: // microblock
			res.Microblocks++
			commit(now, perCommit)
			nextMic = now + microEvery
		}
	}
	if res.Committed > 0 {
		res.MeanLatency = totLat / time.Duration(res.Committed)
	}
	if cfg.Duration > 0 {
		res.ThroughputTPS = float64(res.Committed) / cfg.Duration.Seconds()
	}
	return res
}

func expDur(rng *rand.Rand, mean time.Duration) time.Duration {
	if mean <= 0 {
		return time.Nanosecond
	}
	return time.Duration(rng.ExpFloat64() * float64(mean))
}

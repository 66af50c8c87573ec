// Package pow implements Nakamoto proof-of-work (Section 2.4): the block
// proposal algorithm where inserting a block requires solving a
// computational puzzle over the block header, plus Bitcoin-style
// difficulty retargeting toward a fixed block interval.
//
// Difficulty semantics: Header.Difficulty is the expected number of hash
// attempts a block represents. It drives retargeting, fork-choice
// weight, and — in simulations — the virtual solve-time distribution.
// The *actual* preimage search performed by Solve saturates at
// RealWorkCap attempts so experiments with Bitcoin-scale difficulty
// remain runnable on a laptop: every block still carries a genuine,
// verifiable proof of RealWorkCap-hard work, while timing and economics
// use the full difficulty under virtual time (see DESIGN.md,
// substitutions table).
package pow

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"time"

	"dcsledger/internal/consensus"
	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/metrics"
	"dcsledger/internal/obs"
	"dcsledger/internal/types"
)

// RealWorkCap bounds the hardness of the actual preimage search.
const RealWorkCap = 1 << 14

// MinDifficulty is the floor the retargeting never goes below.
const MinDifficulty = 16

var maxTarget = new(big.Int).Lsh(big.NewInt(1), 256)

// Target returns the numeric threshold a header hash must stay below for
// the given difficulty (capped at RealWorkCap for tractability). It is
// the definition; the seal and its check compare against the same number
// as bytes (threshold).
func Target(difficulty uint64) *big.Int {
	return new(big.Int).Div(maxTarget, new(big.Int).SetUint64(capped(difficulty)))
}

// capped is the difficulty the real search works at: 1 to RealWorkCap.
func capped(difficulty uint64) uint64 { return min(max(difficulty, 1), RealWorkCap) }

// threshold is Target as a hash is compared against it: 32 big-endian
// bytes, or all — difficulty 1, whose target 2^256 no 32 bytes hold and
// every hash is below.
type threshold struct {
	t   cryptoutil.Hash
	all bool
}

func thresholdOf(difficulty uint64) threshold {
	d := capped(difficulty)
	if d == 1 {
		return threshold{all: true}
	}
	// Long division of 2^256 — a one followed by 32 zero bytes — by d, a
	// byte at a time: the remainder stays below d, so each digit fits.
	var th threshold
	r := uint64(1)
	for i := range th.t {
		r <<= 8
		th.t[i] = byte(r / d)
		r %= d
	}
	return th
}

// met reports whether hash is below the target.
func (th *threshold) met(hash *cryptoutil.Hash) bool {
	return th.all || bytes.Compare(hash[:], th.t[:]) < 0
}

// CheckHeader reports whether the header's hash satisfies its declared
// difficulty.
func CheckHeader(h *types.BlockHeader) bool {
	hash := h.Hash()
	th := thresholdOf(h.Difficulty)
	return th.met(&hash)
}

// Solve searches nonces (starting from the header's current nonce) until
// the header satisfies its difficulty, mutating the header in place. It
// returns the number of attempts, or an error if maxAttempts (0 =
// unlimited) is exhausted.
//
// The header is encoded once: an attempt writes its nonce into the
// preimage at types.NonceOffset and hashes it, and allocates nothing.
func Solve(h *types.BlockHeader, maxAttempts uint64) (uint64, error) {
	th := thresholdOf(h.Difficulty)
	pre := append([]byte(types.BlockHashTag), h.Encode()...)
	nonce := pre[len(types.BlockHashTag)+types.NonceOffset:][:8]
	var attempts uint64
	for {
		binary.BigEndian.PutUint64(nonce, h.Nonce)
		if hash := cryptoutil.Hash(sha256.Sum256(pre)); th.met(&hash) {
			return attempts + 1, nil
		}
		h.Nonce++
		attempts++
		if maxAttempts > 0 && attempts >= maxAttempts {
			return attempts, fmt.Errorf("pow: no solution within %d attempts (difficulty %d)", maxAttempts, h.Difficulty)
		}
	}
}

// Retarget computes the next difficulty from the parent's, nudging the
// block interval toward target. The adjustment factor is clamped to
// [1/4, 4] per window, like Bitcoin's.
func Retarget(parentDifficulty uint64, actual, target time.Duration) uint64 {
	if parentDifficulty < MinDifficulty {
		parentDifficulty = MinDifficulty
	}
	if actual <= 0 {
		actual = time.Nanosecond
	}
	ratio := float64(target) / float64(actual)
	if ratio > 4 {
		ratio = 4
	}
	if ratio < 0.25 {
		ratio = 0.25
	}
	next := uint64(float64(parentDifficulty) * ratio)
	if next < MinDifficulty {
		next = MinDifficulty
	}
	return next
}

// Config parameterizes a PoW engine instance.
type Config struct {
	// TargetInterval is the desired block interval (600s for the
	// Bitcoin-like configuration of experiment E2).
	TargetInterval time.Duration
	// InitialDifficulty seeds the chain before retargeting has data.
	InitialDifficulty uint64
	// RetargetWindow is how many blocks between difficulty adjustments
	// (1 = adjust every block).
	RetargetWindow uint64
	// HashRate is this miner's virtual hash rate in attempts/second;
	// the solve time on a given difficulty is exponentially distributed
	// with mean difficulty/HashRate (the Poisson mining process).
	HashRate float64
}

// HeaderReader resolves headers by hash so the engine can average block
// intervals over a retarget window. The node backs it with its block
// tree.
type HeaderReader interface {
	HeaderByHash(h cryptoutil.Hash) (*types.BlockHeader, bool)
}

// Engine is a per-node PoW instance.
type Engine struct {
	cfg    Config
	rng    *rand.Rand
	reader HeaderReader
	// obs observes one pow_seal per Seal: the wall time of the real
	// preimage search, N the hash attempts, Block the sealed block's short
	// hash, into the pow_seal_seconds histogram (RegisterMetrics) and the
	// tracer Node.SetTracer gives it, with the node's ID as label.
	obs obs.Observer
}

var _ consensus.Engine = (*Engine)(nil)

// New creates a PoW engine. rng drives the stochastic virtual solve
// times; pass a seeded source for reproducible experiments.
func New(cfg Config, rng *rand.Rand) *Engine {
	if cfg.InitialDifficulty < MinDifficulty {
		cfg.InitialDifficulty = MinDifficulty
	}
	if cfg.RetargetWindow == 0 {
		// Averaging over a window keeps the difficulty unbiased: per-block
		// retargeting on exponential intervals drifts upward by e^γ.
		cfg.RetargetWindow = 16
	}
	if cfg.HashRate <= 0 {
		cfg.HashRate = 1000
	}
	return &Engine{cfg: cfg, rng: rng, obs: obs.NewObserver("", nil, obs.StagePowSeal)}
}

// Name implements consensus.Engine.
func (e *Engine) Name() string { return "pow" }

// SetHeaderReader wires the chain view used for windowed retargeting.
// Without one the engine falls back to single-interval retargeting.
func (e *Engine) SetHeaderReader(r HeaderReader) { e.reader = r }

// SetTracer wires the pipeline event tracer, and peer, the node's ID, as
// the label of the pow_seal spans. The node propagates both here via
// Node.SetTracer; call before mining starts.
func (e *Engine) SetTracer(peer string, tr *obs.Tracer) { e.obs.Peer, e.obs.Tracer = peer, tr }

// RegisterMetrics exports the engine's pow_seal_seconds histogram through
// reg. The node calls it from its own RegisterMetrics.
func (e *Engine) RegisterMetrics(reg *metrics.Registry) { e.obs.Register(reg) }

// Prepare implements consensus.Engine: difficulty is constant within a
// retarget window and adjusts at window boundaries from the average
// block interval over the completed window (Bitcoin's schedule, with a
// smaller default window).
func (e *Engine) Prepare(hdr *types.BlockHeader, parent *types.Block) error {
	if parent.Header.Height == 0 || parent.Header.Time == 0 {
		hdr.Difficulty = e.cfg.InitialDifficulty
		return nil
	}
	if hdr.Height%e.cfg.RetargetWindow != 0 {
		hdr.Difficulty = parent.Header.Difficulty
		return nil
	}
	actual := e.windowInterval(hdr, &parent.Header)
	hdr.Difficulty = Retarget(parent.Header.Difficulty, actual, e.cfg.TargetInterval)
	return nil
}

// windowInterval averages the block interval over up to RetargetWindow
// trailing blocks ending at hdr.
func (e *Engine) windowInterval(hdr *types.BlockHeader, parent *types.BlockHeader) time.Duration {
	start := parent
	for steps := uint64(1); steps < e.cfg.RetargetWindow && start.Height > 0 && e.reader != nil; steps++ {
		prev, ok := e.reader.HeaderByHash(start.ParentHash)
		if !ok {
			break
		}
		start = prev
	}
	blocks := hdr.Height - start.Height
	if blocks == 0 {
		blocks = 1
	}
	return time.Duration(hdr.Time-start.Time) / time.Duration(blocks)
}

// Delay implements consensus.Engine: an exponential sample with mean
// difficulty/hashRate — the memoryless race every miner runs.
func (e *Engine) Delay(parent *types.Block, self cryptoutil.Address) (time.Duration, bool) {
	difficulty := parent.Header.Difficulty
	if difficulty < MinDifficulty {
		difficulty = e.cfg.InitialDifficulty
	}
	mean := float64(difficulty) / e.cfg.HashRate // seconds
	sample := e.rng.ExpFloat64() * mean
	if math.IsInf(sample, 0) || sample > 1e9 {
		sample = 1e9
	}
	return time.Duration(sample * float64(time.Second)), true
}

// Seal implements consensus.Engine: performs the real preimage search,
// observed as pow_seal.
func (e *Engine) Seal(b *types.Block, parent *types.Block) error {
	if b.Header.Difficulty == 0 {
		if err := e.Prepare(&b.Header, parent); err != nil {
			return err
		}
	}
	sw := obs.StartTimer()
	attempts, err := Solve(&b.Header, 64*RealWorkCap)
	if err != nil {
		return err
	}
	e.obs.Observe(obs.StagePowSeal, sw.Start(), sw.Elapsed(), obs.At{Height: b.Header.Height, N: attempts, Block: b.Hash().Short()})
	return nil
}

// VerifySeal implements consensus.Engine: checks the proof and that the
// declared difficulty follows the retarget schedule.
func (e *Engine) VerifySeal(b *types.Block, parent *types.Block) error {
	var want types.BlockHeader
	want.Height = b.Header.Height
	want.Time = b.Header.Time
	if err := e.Prepare(&want, parent); err != nil {
		return err
	}
	if b.Header.Difficulty != want.Difficulty {
		return fmt.Errorf("%w: difficulty %d, want %d", consensus.ErrInvalidSeal, b.Header.Difficulty, want.Difficulty)
	}
	if b.Header.Time < parent.Header.Time {
		return fmt.Errorf("%w: block time precedes parent", consensus.ErrBadTimestamp)
	}
	if !CheckHeader(&b.Header) {
		return fmt.Errorf("%w: header hash misses target", consensus.ErrInvalidSeal)
	}
	return nil
}

package pow

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"testing"
	"time"

	"dcsledger/internal/consensus"
	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/types"
)

func genesisBlock() *types.Block {
	return types.NewBlock(cryptoutil.ZeroHash, 0, 0, cryptoutil.ZeroAddress, nil)
}

func childOf(parent *types.Block, at time.Duration) *types.Block {
	miner := cryptoutil.KeyFromSeed([]byte("miner")).Address()
	cb := types.NewCoinbase(miner, 50, parent.Header.Height+1)
	return types.NewBlock(parent.Hash(), parent.Header.Height+1, int64(at), miner, []*types.Transaction{cb})
}

func testEngine(hashRate float64) *Engine {
	return New(Config{
		TargetInterval:    10 * time.Minute,
		InitialDifficulty: 256,
		HashRate:          hashRate,
	}, rand.New(rand.NewSource(1)))
}

func TestSolveAndCheck(t *testing.T) {
	b := childOf(genesisBlock(), time.Second)
	b.Header.Difficulty = 256
	attempts, err := Solve(&b.Header, 0)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if attempts == 0 {
		t.Fatal("Solve should report attempts")
	}
	if !CheckHeader(&b.Header) {
		t.Fatal("solved header must check")
	}
	// Any mutation invalidates the proof (with overwhelming probability
	// at this difficulty).
	b.Header.TxRoot[0] ^= 1
	if CheckHeader(&b.Header) {
		t.Fatal("mutated header should not satisfy the target")
	}
}

func TestSolveRespectsMaxAttempts(t *testing.T) {
	b := childOf(genesisBlock(), time.Second)
	b.Header.Difficulty = RealWorkCap // hardest real puzzle
	if _, err := Solve(&b.Header, 1); err == nil {
		// One attempt succeeding is possible but absurdly unlikely to
		// happen for this fixed test vector; treat success as failure
		// only if the header actually fails the check.
		if !CheckHeader(&b.Header) {
			t.Fatal("Solve claimed success without a valid header")
		}
	}
}

func TestTargetMonotonic(t *testing.T) {
	if Target(16).Cmp(Target(256)) <= 0 {
		t.Fatal("higher difficulty must mean lower target")
	}
	// Saturation at RealWorkCap.
	if Target(RealWorkCap).Cmp(Target(RealWorkCap*1024)) != 0 {
		t.Fatal("target must saturate at RealWorkCap")
	}
	if Target(0).Cmp(maxTarget) != 0 {
		t.Fatal("zero difficulty must clamp to easiest target")
	}
}

func TestRetarget(t *testing.T) {
	target := 10 * time.Minute
	tests := []struct {
		name   string
		actual time.Duration
		check  func(next uint64) bool
	}{
		{name: "on pace keeps difficulty", actual: target, check: func(n uint64) bool { return n == 1000 }},
		{name: "fast blocks raise difficulty", actual: target / 2, check: func(n uint64) bool { return n == 2000 }},
		{name: "slow blocks lower difficulty", actual: target * 2, check: func(n uint64) bool { return n == 500 }},
		{name: "clamped up", actual: target / 100, check: func(n uint64) bool { return n == 4000 }},
		{name: "clamped down", actual: target * 100, check: func(n uint64) bool { return n == 250 }},
		{name: "zero interval clamps", actual: 0, check: func(n uint64) bool { return n == 4000 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if next := Retarget(1000, tt.actual, target); !tt.check(next) {
				t.Fatalf("Retarget = %d", next)
			}
		})
	}
	if Retarget(1, time.Hour, target) < MinDifficulty {
		t.Fatal("difficulty must not fall below the floor")
	}
}

func TestDelayDistribution(t *testing.T) {
	// The mean of the exponential solve times should approximate
	// difficulty / hashRate.
	e := testEngine(256) // mean = 256/256 = 1s
	g := genesisBlock()
	g.Header.Difficulty = 256
	var total time.Duration
	const n = 3000
	for i := 0; i < n; i++ {
		d, ok := e.Delay(g, cryptoutil.ZeroAddress)
		if !ok {
			t.Fatal("PoW must always be allowed to mine")
		}
		total += d
	}
	mean := total / n
	if mean < 800*time.Millisecond || mean > 1200*time.Millisecond {
		t.Fatalf("mean delay = %v, want ≈1s", mean)
	}
}

func TestDelayScalesWithHashRate(t *testing.T) {
	g := genesisBlock()
	g.Header.Difficulty = 1 << 20
	meanOf := func(rate float64) time.Duration {
		e := testEngine(rate)
		var total time.Duration
		for i := 0; i < 2000; i++ {
			d, _ := e.Delay(g, cryptoutil.ZeroAddress)
			total += d
		}
		return total / 2000
	}
	slow, fast := meanOf(1000), meanOf(16000)
	if slow < 10*fast {
		t.Fatalf("16x hash rate should be ≈16x faster: slow=%v fast=%v", slow, fast)
	}
}

func TestSealVerifyRoundTrip(t *testing.T) {
	e := testEngine(1000)
	g := genesisBlock()
	b := childOf(g, 10*time.Minute)
	b.Header.Proposer = cryptoutil.KeyFromSeed([]byte("miner")).Address()
	if err := e.Prepare(&b.Header, g); err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if err := e.Seal(b, g); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if err := e.VerifySeal(b, g); err != nil {
		t.Fatalf("VerifySeal: %v", err)
	}
}

func TestVerifySealRejections(t *testing.T) {
	e := testEngine(1000)
	g := genesisBlock()

	seal := func() *types.Block {
		b := childOf(g, 10*time.Minute)
		if err := e.Prepare(&b.Header, g); err != nil {
			t.Fatalf("Prepare: %v", err)
		}
		if err := e.Seal(b, g); err != nil {
			t.Fatalf("Seal: %v", err)
		}
		return b
	}

	t.Run("unsolved header", func(t *testing.T) {
		b := seal()
		b.Header.Nonce = 0
		// Nonce 0 almost surely misses; if it happens to hit, re-check.
		if !CheckHeader(&b.Header) {
			if err := e.VerifySeal(b, g); !errors.Is(err, consensus.ErrInvalidSeal) {
				t.Fatalf("want ErrInvalidSeal, got %v", err)
			}
		}
	})
	t.Run("wrong difficulty", func(t *testing.T) {
		b := seal()
		b.Header.Difficulty = 17
		if err := e.VerifySeal(b, g); !errors.Is(err, consensus.ErrInvalidSeal) {
			t.Fatalf("want ErrInvalidSeal, got %v", err)
		}
	})
	t.Run("time before parent", func(t *testing.T) {
		parent := seal()
		b := childOf(parent, 5*time.Minute) // parent is at 10m
		if err := e.Prepare(&b.Header, parent); err != nil {
			t.Fatalf("Prepare: %v", err)
		}
		if err := e.Seal(b, parent); err != nil {
			t.Fatalf("Seal: %v", err)
		}
		if err := e.VerifySeal(b, parent); !errors.Is(err, consensus.ErrBadTimestamp) {
			t.Fatalf("want ErrBadTimestamp, got %v", err)
		}
	})
}

func TestRetargetConvergesInSimulation(t *testing.T) {
	// Simulate sequential mining with virtual time: difficulty should
	// converge so the interval approaches the 100s target.
	const targetInterval = 100 * time.Second
	const hashRate = 100.0
	e := New(Config{TargetInterval: targetInterval, InitialDifficulty: 64, HashRate: hashRate},
		rand.New(rand.NewSource(7)))
	headers := make(map[cryptoutil.Hash]*types.BlockHeader)
	e.SetHeaderReader(headerMap(headers))

	parent := genesisBlock()
	headers[parent.Hash()] = &parent.Header
	now := time.Duration(0)
	var lastIntervals []time.Duration
	prevTime := now
	for i := 0; i < 600; i++ {
		// Virtual mining: exponential with mean difficulty/hashRate.
		d, _ := e.Delay(parent, cryptoutil.ZeroAddress)
		now += d
		b := childOf(parent, now)
		if err := e.Prepare(&b.Header, parent); err != nil {
			t.Fatalf("Prepare: %v", err)
		}
		// Skip the real solve (timing is what matters here); difficulty
		// bookkeeping only.
		headers[b.Hash()] = &b.Header
		if i >= 400 {
			lastIntervals = append(lastIntervals, now-prevTime)
		}
		prevTime = now
		parent = b
	}
	var sum time.Duration
	for _, iv := range lastIntervals {
		sum += iv
	}
	mean := sum / time.Duration(len(lastIntervals))
	if mean < targetInterval/2 || mean > targetInterval*2 {
		t.Fatalf("retargeted interval = %v, want ≈%v", mean, targetInterval)
	}
}

// headerMap adapts a map to the HeaderReader interface.
type headerMap map[cryptoutil.Hash]*types.BlockHeader

func (m headerMap) HeaderByHash(h cryptoutil.Hash) (*types.BlockHeader, bool) {
	hdr, ok := m[h]
	return hdr, ok
}

func TestWindowedRetargetBoundariesOnly(t *testing.T) {
	// Within a window, difficulty is inherited unchanged.
	e := testEngine(1000)
	g := genesisBlock()
	b1 := childOf(g, time.Second)
	if err := e.Prepare(&b1.Header, g); err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	b2 := childOf(b1, 2*time.Second)
	if err := e.Prepare(&b2.Header, b1); err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if b2.Header.Difficulty != b1.Header.Difficulty {
		t.Fatal("difficulty must be constant inside a retarget window")
	}
}

func TestEngineName(t *testing.T) {
	if testEngine(1).Name() != "pow" {
		t.Fatal("name changed")
	}
}

// referenceSolve is the search as it was before the seal stopped
// allocating: the header encoded and hashed again on every attempt, and
// the hash compared as a big.Int against Target. It is the oracle Solve
// is held to.
func referenceSolve(h *types.BlockHeader, maxAttempts uint64) (uint64, error) {
	var attempts uint64
	for {
		hash := h.Hash()
		if new(big.Int).SetBytes(hash[:]).Cmp(Target(h.Difficulty)) < 0 {
			return attempts + 1, nil
		}
		h.Nonce++
		attempts++
		if maxAttempts > 0 && attempts >= maxAttempts {
			return attempts, errors.New("exhausted")
		}
	}
}

// TestSolveMatchesReference: at every difficulty the cap distinguishes —
// 1, whose target no 32-byte hash reaches, the smallest divisors, the
// cap's neighbours and past it — with and without Extra, from a non-zero
// start nonce, Solve finds the nonce the big.Int search finds, in as many
// attempts, stops where it stops when attempts run out, and VerifySeal
// accepts what it sealed.
func TestSolveMatchesReference(t *testing.T) {
	e := testEngine(1000)
	for _, d := range []uint64{1, 2, 3, 16, 4096, RealWorkCap - 1, RealWorkCap, 4 * RealWorkCap} {
		for _, extra := range [][]byte{nil, []byte("pow/extra: a consensus payload of some length")} {
			t.Run(fmt.Sprintf("d=%d/extra=%d", d, len(extra)), func(t *testing.T) {
				// Inside a retarget window the schedule keeps the parent's
				// difficulty, so VerifySeal accepts any d.
				parent := childOf(genesisBlock(), time.Second)
				parent.Header.Difficulty = d
				b := childOf(parent, 2*time.Second)
				b.Header.Difficulty, b.Header.Nonce, b.Header.Extra = d, 1<<40+977, extra

				ref := b.Header
				wantAttempts, err := referenceSolve(&ref, 0)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Solve(&b.Header, 0)
				if err != nil || got != wantAttempts || b.Header.Nonce != ref.Nonce || b.Hash() != ref.Hash() {
					t.Fatalf("Solve: %d attempts to nonce %d (%v), reference %d to %d", got, b.Header.Nonce, err, wantAttempts, ref.Nonce)
				}
				if err := e.VerifySeal(b, parent); err != nil {
					t.Fatalf("VerifySeal: %v", err)
				}

				// Run out of attempts just short of the solution: both stop
				// on the same nonce, both say so.
				if wantAttempts > 1 {
					short, ref := b.Header, b.Header
					short.Nonce, ref.Nonce = 1<<40+977, 1<<40+977
					n1, err1 := Solve(&short, wantAttempts-1)
					n2, err2 := referenceSolve(&ref, wantAttempts-1)
					if n1 != n2 || short.Nonce != ref.Nonce || err1 == nil || err2 == nil {
						t.Fatalf("out of attempts: %d to nonce %d (%v), reference %d to %d (%v)", n1, short.Nonce, err1, n2, ref.Nonce, err2)
					}
				}
			})
		}
	}
}

// TestSolveAllocs: the search allocates the preimage and nothing per
// attempt, so a seal at difficulty 4096 allocates what one at 64 does.
// Before, every attempt encoded the header and boxed its hash and the
// target in big.Ints: 7 allocations an attempt, about 28,000 a block.
func TestSolveAllocs(t *testing.T) {
	allocs := func(d uint64) (float64, uint64) {
		b := childOf(genesisBlock(), time.Second)
		b.Header.Difficulty = d
		var attempts uint64
		return testing.AllocsPerRun(20, func() {
			var err error
			b.Header.Nonce = 9 << 20 // 86 attempts at 64, 4267 at 4096
			if attempts, err = Solve(&b.Header, 0); err != nil {
				t.Fatal(err)
			}
		}), attempts
	}
	low, lowN := allocs(64)
	high, highN := allocs(4096)
	t.Logf("allocations a seal: %.0f at difficulty 64 (%d attempts), %.0f at 4096 (%d attempts)", low, lowN, high, highN)
	if low != high || high > 10 {
		t.Fatalf("a seal allocates %.0f times at difficulty 64 and %.0f at 4096: want the same, at most 10", low, high)
	}
}

// BenchmarkSolve is one block's seal at the fleet's difficulty: ns/op is
// the time n.mu is held for it, B/op and allocs/op what it leaves for the
// collector, ns/attempt the cost of one hash attempt.
func BenchmarkSolve(b *testing.B) {
	blk := childOf(genesisBlock(), time.Second)
	blk.Header.Difficulty = 4096
	b.ReportAllocs()
	var attempts uint64
	for i := 0; i < b.N; i++ {
		blk.Header.Nonce = uint64(i) << 32
		n, err := Solve(&blk.Header, 0)
		if err != nil {
			b.Fatal(err)
		}
		attempts += n
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(attempts), "ns/attempt")
}

package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"dcsledger/internal/consensus"
	"dcsledger/internal/consensus/forkchoice"
	"dcsledger/internal/consensus/pow"
	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/incentive"
	"dcsledger/internal/node"
	"dcsledger/internal/wallet"
)

// powClusterConfig parameterizes the standard PoW network used by
// several experiments.
type powClusterConfig struct {
	n          int
	seed       int64
	interval   time.Duration
	hashRate   float64 // per miner; keeps real puzzle difficulty low
	latency    time.Duration
	ghost      bool
	maxTxs     int
	fanout     int
	alloc      map[cryptoutil.Address]uint64
	initialDif uint64
}

func newPoWCluster(cfg powClusterConfig) (*node.Cluster, error) {
	if cfg.maxTxs == 0 {
		cfg.maxTxs = 256
	}
	if cfg.latency == 0 {
		cfg.latency = 100 * time.Millisecond
	}
	if cfg.initialDif == 0 {
		cfg.initialDif = 64
	}
	fc := func() consensus.ForkChoice { return consensus.ForkChoice(forkchoice.LongestChain{}) }
	if cfg.ghost {
		fc = func() consensus.ForkChoice { return consensus.ForkChoice(forkchoice.GHOST{}) }
	}
	return node.NewCluster(node.ClusterConfig{
		N: cfg.n,
		Engine: func(i int, key *cryptoutil.KeyPair) consensus.Engine {
			return pow.New(pow.Config{
				TargetInterval:    cfg.interval,
				InitialDifficulty: cfg.initialDif,
				HashRate:          cfg.hashRate,
			}, rand.New(rand.NewSource(cfg.seed+int64(i)+1000)))
		},
		ForkChoice:  fc,
		Alloc:       cfg.alloc,
		Rewards:     incentive.Schedule{InitialReward: 50},
		Seed:        cfg.seed,
		Latency:     cfg.latency,
		Fanout:      cfg.fanout,
		MaxBlockTxs: cfg.maxTxs,
	})
}

// txLoad schedules `count` signed transfers spread uniformly over the
// given span, each submitted at a random peer. Submission times are
// sorted per sender so nonces arrive in order (as a real wallet would
// emit them); interleaving across senders stays random.
func txLoad(c *node.Cluster, wallets []*wallet.Wallet, count int, span time.Duration, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dest := wallet.FromSeed("bench/sink").Address()
	// Draw per-wallet submission instants, sorted ascending.
	times := make([][]time.Duration, len(wallets))
	for i := 0; i < count; i++ {
		wi := i % len(wallets)
		times[wi] = append(times[wi], time.Duration(rng.Int63n(int64(span))))
	}
	for _, ts := range times {
		sort.Slice(ts, func(a, b int) bool { return ts[a] < ts[b] })
	}
	for wi, ts := range times {
		w := wallets[wi]
		for _, at := range ts {
			peer := c.Nodes[rng.Intn(len(c.Nodes))]
			tx, err := w.Transfer(dest, 1, 1+uint64(rng.Intn(3)))
			if err != nil {
				continue
			}
			c.Sim.At(c.Sim.Now().Add(at), func() {
				_ = peer.SubmitTx(tx)
			})
		}
	}
}

// loadWallets derives funded wallets and the matching genesis alloc.
func loadWallets(n int, funds uint64) ([]*wallet.Wallet, map[cryptoutil.Address]uint64) {
	ws := make([]*wallet.Wallet, n)
	alloc := make(map[cryptoutil.Address]uint64, n)
	for i := range ws {
		ws[i] = wallet.FromSeed(fmt.Sprintf("bench/wallet/%d", i))
		alloc[ws[i].Address()] = funds
	}
	return ws, alloc
}

// committedTxs counts user (non-coinbase) transactions on the main
// chain of node 0.
func committedTxs(c *node.Cluster) int {
	n := c.Nodes[0]
	total := 0
	for h := uint64(1); h <= n.Chain().Height(); h++ {
		bh, _ := n.Chain().AtHeight(h)
		txs, _ := n.Tree().TxCount(bh)
		total += txs - 1 // exclude coinbase
	}
	return total
}

// meanBlockInterval measures the average spacing of main-chain blocks.
func meanBlockInterval(c *node.Cluster) time.Duration {
	n := c.Nodes[0]
	h := n.Chain().Height()
	if h < 2 {
		return 0
	}
	firstHash, _ := n.Chain().AtHeight(1)
	lastHash, _ := n.Chain().AtHeight(h)
	first, _ := n.Tree().Header(firstHash)
	last, _ := n.Tree().Header(lastHash)
	return time.Duration(last.Time-first.Time) / time.Duration(h-1)
}

// proposerCounts tallies main-chain blocks per proposer.
func proposerCounts(c *node.Cluster) map[cryptoutil.Address]int {
	n := c.Nodes[0]
	counts := make(map[cryptoutil.Address]int)
	for h := uint64(1); h <= n.Chain().Height(); h++ {
		bh, _ := n.Chain().AtHeight(h)
		hdr, _ := n.Tree().Header(bh)
		counts[hdr.Proposer]++
	}
	return counts
}

// gini computes the Gini coefficient of a distribution — the
// decentralization metric of the E5 scorecard (0 = perfectly equal).
func gini(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	var cum, total float64
	for i, v := range sorted {
		cum += v * float64(i+1)
		total += v
	}
	n := float64(len(sorted))
	if total == 0 {
		return 0
	}
	return (2*cum)/(n*total) - (n+1)/n
}

// fmtDur renders a duration with sensible precision.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return fmt.Sprintf("%.1fm", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.1fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d)/1e6)
	default:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	}
}

func fmtF(v float64, prec int) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "-"
	}
	return fmt.Sprintf("%.*f", prec, v)
}

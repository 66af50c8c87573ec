package bench

import (
	"fmt"
	"math/rand"
	"time"

	"dcsledger/internal/consensus/ordering"
	"dcsledger/internal/consensus/pbft"
	"dcsledger/internal/consensus/poet"
	"dcsledger/internal/consensus/pos"
	"dcsledger/internal/consensus/raft"
	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/obs"
	"dcsledger/internal/p2p"
	"dcsledger/internal/simclock"
	"dcsledger/internal/types"
)

// E1Consistency exercises Figure 1 end to end: a gossiping PoW network
// whose peers all converge on one replicated chain.
func E1Consistency(scale float64) (*Table, error) {
	peers := scaled(16, scale, 4)
	txs := scaled(200, scale, 20)
	wallets, alloc := loadWallets(8, 1_000_000)
	c, err := newPoWCluster(powClusterConfig{
		n: peers, seed: 101, interval: 15 * time.Second, hashRate: 8, alloc: alloc,
	})
	if err != nil {
		return nil, err
	}
	span := 10 * time.Minute
	txLoad(c, wallets, txs, span, 202)
	c.Start()
	c.Sim.RunFor(span)
	c.Stop()
	c.Sim.RunFor(time.Minute)

	height := c.Nodes[0].Chain().Height()
	prefix := c.ConsistentPrefix()
	identical := 0
	head := c.Nodes[0].Chain().Head()
	for _, n := range c.Nodes {
		if n.Chain().Head() == head {
			identical++
		}
	}
	st := c.Net.Stats()

	t := &Table{
		ID:         "E1",
		Title:      "Replicated-ledger consistency over gossip (Fig. 1)",
		PaperClaim: "each peer maintains a consistent copy of the ledger (§2.1)",
		Columns:    []string{"peers", "height", "consistent prefix", "identical heads", "committed txs", "msgs delivered"},
	}
	t.AddRow(
		fmt.Sprintf("%d", peers),
		fmt.Sprintf("%d", height),
		fmt.Sprintf("%d", prefix),
		fmt.Sprintf("%d/%d", identical, peers),
		fmt.Sprintf("%d", committedTxs(c)),
		fmt.Sprintf("%d", st.Delivered),
	)
	t.Note("prefix within 2 blocks of height = agreement up to in-flight tips")
	return t, nil
}

// E2BitcoinCeiling reproduces §2.7's Bitcoin analysis: retargeting pins
// the interval at the target regardless of hash power, so throughput is
// a constant ceiling (block size / interval) instead of growing.
func E2BitcoinCeiling(scale float64) (*Table, error) {
	const (
		interval = 600 * time.Second
		blockCap = 4000 // ⇒ ceiling ≈ 6.7 tps, Bitcoin's "7 tps"
		miners   = 6
	)
	t := &Table{
		ID:         "E2",
		Title:      "PoW throughput vs hash power (Bitcoin is DC, §2.7)",
		PaperClaim: "fixed to one block per 10 minutes ⇒ ~7 tps; more hash power does not increase throughput",
		Columns:    []string{"hash power", "mean interval", "ceiling tps", "offered tps", "committed tps"},
	}
	hours := scaled(14, scale, 3)
	for _, mult := range []float64{1, 4, 16} {
		wallets, alloc := loadWallets(8, 1_000_000)
		c, err := newPoWCluster(powClusterConfig{
			n: miners, seed: 300 + int64(mult), interval: interval,
			hashRate: 2 * mult, alloc: alloc, maxTxs: blockCap,
			initialDif: uint64(600 * 2 * mult * float64(miners)),
		})
		if err != nil {
			return nil, err
		}
		span := time.Duration(hours) * time.Hour
		const offered = 0.5 // tps, below the ceiling
		txLoad(c, wallets, int(offered*span.Seconds()), span, 41)
		c.Start()
		c.Sim.RunFor(span)
		c.Stop()
		c.Sim.RunFor(30 * time.Minute)

		mean := meanBlockInterval(c)
		ceiling := float64(blockCap) / mean.Seconds()
		committed := float64(committedTxs(c)) / span.Seconds()
		t.AddRow(
			fmt.Sprintf("x%.0f", mult),
			fmtDur(mean),
			fmtF(ceiling, 2),
			fmtF(offered, 2),
			fmtF(committed, 2),
		)
	}
	t.Note("retargeting holds the interval near 10m at every hash power; ceiling stays ≈6.7 tps")
	return t, nil
}

// E3ForkChoice reproduces §2.7's Ethereum analysis: shortening the
// block interval raises throughput but multiplies branches; GHOST keeps
// selection stable where longest-chain wobbles.
func E3ForkChoice(scale float64) (*Table, error) {
	t := &Table{
		ID:         "E3",
		Title:      "Fork rate vs block interval; longest-chain vs GHOST (§2.7)",
		PaperClaim: "10–40s blocks increase branch occurrence; Ethereum mitigates with GHOST",
		Columns:    []string{"interval", "rule", "height", "stale blocks", "fork rate", "reorgs", "blocks/hour"},
	}
	blocks := scaled(300, scale, 40)
	for _, interval := range []time.Duration{600 * time.Second, 40 * time.Second, 10 * time.Second} {
		for _, ghost := range []bool{false, true} {
			c, err := newPoWCluster(powClusterConfig{
				n: 10, seed: 500, interval: interval,
				hashRate: 2, latency: 2 * time.Second, ghost: ghost,
				initialDif: uint64(interval.Seconds() * 2 * 10),
			})
			if err != nil {
				return nil, err
			}
			span := interval * time.Duration(blocks)
			c.Start()
			c.Sim.RunFor(span)
			c.Stop()
			c.Sim.RunFor(time.Minute)

			n0 := c.Nodes[0]
			total := n0.Tree().Len() - 1
			main := int(n0.Chain().Height())
			rule := "longest"
			if ghost {
				rule = "ghost"
			}
			t.AddRow(
				fmtDur(interval),
				rule,
				fmt.Sprintf("%d", main),
				fmt.Sprintf("%d", total-main),
				fmtF(c.ForkRate(), 3),
				fmt.Sprintf("%d", n0.Metrics().Reorgs),
				fmtF(float64(main)/span.Hours(), 1),
			)
		}
	}
	t.Note("fork rate grows as the interval approaches the 2s propagation latency")
	return t, nil
}

// E4Ordering reproduces §2.7's Hyperledger analysis: a permissioned
// ordering service delivers orders of magnitude more throughput than
// proof-based consensus.
func E4Ordering(scale float64) (*Table, error) {
	t := &Table{
		ID:         "E4",
		Title:      "Ordering-service throughput vs batch size (§2.7)",
		PaperClaim: "ordering service instead of PoW ⇒ throughput above 10K tps",
		Columns:    []string{"orderer", "batch", "txs", "batches", "wall tps", "virtual latency"},
	}
	txCount := scaled(50_000, scale, 2000)

	// Solo orderer: pure-CPU wall-clock throughput.
	for _, batch := range []int{16, 256, 1024} {
		sim := simclock.NewSimulator()
		solo := ordering.NewSolo(ordering.BatchConfig{MaxTxs: batch, Timeout: time.Second}, sim)
		delivered := 0
		solo.Subscribe(func(b ordering.Batch) { delivered += len(b.Txs) })
		txs := make([]*types.Transaction, txCount)
		for i := range txs {
			txs[i] = types.NewTransfer(cryptoutil.ZeroAddress, cryptoutil.ZeroAddress, uint64(i), 1, uint64(i))
		}
		start := time.Now()
		for _, tx := range txs {
			if err := solo.Submit(tx); err != nil {
				return nil, err
			}
		}
		sim.RunFor(2 * time.Second) // flush the final partial batch
		elapsed := time.Since(start)
		tps := float64(delivered) / elapsed.Seconds()
		t.AddRow("solo", fmt.Sprintf("%d", batch), fmt.Sprintf("%d", delivered),
			fmt.Sprintf("%d", int(solo.Delivered())), fmtF(tps, 0), "-")
	}

	// Raft orderer: replicated; throughput and latency under virtual
	// network delay.
	raftTxs := scaled(4000, scale, 400)
	for _, batch := range []int{64, 512} {
		tps, lat, err := raftOrderingRun(raftTxs, batch)
		if err != nil {
			return nil, err
		}
		t.AddRow("raft(3)", fmt.Sprintf("%d", batch), fmt.Sprintf("%d", raftTxs), "-",
			fmtF(tps, 0), fmtDur(lat))
	}
	t.Note("solo tps is wall-clock on this host; raft tps/latency are simulated with 5ms links")
	return t, nil
}

func raftOrderingRun(txCount, batch int) (tps float64, meanLatency time.Duration, err error) {
	sim := simclock.NewSimulator()
	cluster, err := newRaftOrderers(sim, 3, ordering.BatchConfig{MaxTxs: batch, Timeout: 100 * time.Millisecond})
	if err != nil {
		return 0, 0, err
	}
	var (
		delivered int
		lastAt    time.Time
	)
	cluster[0].Subscribe(func(b ordering.Batch) {
		delivered += len(b.Txs)
		lastAt = sim.Now()
	})
	// Elect a leader.
	var leader *ordering.Orderer
	for i := 0; i < 100 && leader == nil; i++ {
		sim.RunFor(100 * time.Millisecond)
		for _, o := range cluster {
			if o.IsLeader() {
				leader = o
			}
		}
	}
	if leader == nil {
		return 0, 0, fmt.Errorf("bench: no raft leader")
	}
	start := sim.Now()
	// Offer txs continuously at ~2000 tps virtual.
	interval := 500 * time.Microsecond
	for i := 0; i < txCount; i++ {
		tx := types.NewTransfer(cryptoutil.ZeroAddress, cryptoutil.ZeroAddress, uint64(i), 1, uint64(i))
		at := start.Add(time.Duration(i) * interval)
		sim.At(at, func() { _ = leader.Submit(tx) })
	}
	sim.RunFor(time.Duration(txCount)*interval + 5*time.Second)
	if delivered == 0 {
		return 0, 0, fmt.Errorf("bench: raft ordering delivered nothing")
	}
	elapsed := lastAt.Sub(start)
	if elapsed <= 0 {
		elapsed = time.Millisecond
	}
	// Mean latency approximated by batch cut timeout + replication RTT.
	return float64(delivered) / elapsed.Seconds(), lastAt.Sub(start) / time.Duration(delivered/batch+1), nil
}

// newRaftOrderers wires n raft-backed orderers on a simulated network.
func newRaftOrderers(sim *simclock.Simulator, n int, cfg ordering.BatchConfig) ([]*ordering.Orderer, error) {
	net := p2p.NewSimNetwork(sim, 900, p2p.WithLatency(5*time.Millisecond))
	ids := make([]p2p.NodeID, n)
	for i := range ids {
		ids[i] = p2p.NodeName(i)
	}
	out := make([]*ordering.Orderer, 0, n)
	for i, id := range ids {
		var peers []p2p.NodeID
		for _, other := range ids {
			if other != id {
				peers = append(peers, other)
			}
		}
		mux := p2p.NewMux()
		ep, err := net.Join(id, mux.Dispatch)
		if err != nil {
			return nil, err
		}
		o := ordering.NewRaft(cfg, sim)
		nodeImpl := raft.NewNode(id, peers, ep, sim, rand.New(rand.NewSource(int64(i+1))),
			raft.Config{ElectionTimeout: 100 * time.Millisecond}, o.Apply)
		o.Attach(nodeImpl)
		mux.Handle(raft.MsgPrefix, nodeImpl.HandleMessage)
		nodeImpl.Start()
		out = append(out, o)
	}
	return out, nil
}

// E5DCSScorecard runs the three §2.7 configurations side by side and
// scores each on the DCS axes.
func E5DCSScorecard(scale float64) (*Table, error) {
	t := &Table{
		ID:         "E5",
		Title:      "DCS scorecard: Bitcoin-like vs Ethereum-like vs Fabric-like (§2.7)",
		PaperClaim: "a blockchain system provides only two of Decentralization, Consistency, Scalability",
		Columns:    []string{"config", "membership", "proposer gini", "fork rate", "finality", "ceiling tps", "balance"},
	}
	blocks := scaled(200, scale, 30)

	// Bitcoin-like: PoW 600s + longest chain.
	// Ethereum-like: PoW 15s + GHOST.
	type powCase struct {
		name     string
		interval time.Duration
		ghost    bool
		maxTxs   int
		balance  string
	}
	for _, pc := range []powCase{
		{name: "bitcoin-like", interval: 600 * time.Second, ghost: false, maxTxs: 4000, balance: "DC"},
		{name: "ethereum-like", interval: 15 * time.Second, ghost: true, maxTxs: 300, balance: "DC→S"},
	} {
		c, err := newPoWCluster(powClusterConfig{
			n: 8, seed: 700, interval: pc.interval, hashRate: 2,
			latency: time.Second, ghost: pc.ghost, maxTxs: pc.maxTxs,
			initialDif: uint64(pc.interval.Seconds() * 2 * 8),
		})
		if err != nil {
			return nil, err
		}
		c.Start()
		c.Sim.RunFor(pc.interval * time.Duration(blocks))
		c.Stop()
		c.Sim.RunFor(time.Minute)

		counts := proposerCounts(c)
		shares := make([]float64, 0, len(c.Nodes))
		for _, n := range c.Nodes {
			shares = append(shares, float64(counts[n.Address()]))
		}
		mean := meanBlockInterval(c)
		ceiling := float64(pc.maxTxs) / mean.Seconds()
		t.AddRow(pc.name, "open", fmtF(gini(shares), 2), fmtF(c.ForkRate(), 3),
			fmtDur(6*mean), fmtF(ceiling, 1), pc.balance)
	}

	// Fabric-like: solo ordering + PBFT committers. No forks by
	// construction; throughput from the E4 machinery.
	executed, _, elapsed, err := fabricRun(71, scaled(20_000, scale, 2000), nil)
	if err != nil {
		return nil, err
	}
	t.AddRow("fabric-like", "permissioned", "1.00", "0.000", "immediate", fmtF(float64(executed)/elapsed.Seconds(), 0), "CS")
	t.Note("proposer gini 1.00 for fabric-like: a single ordering service proposes every block")
	return t, nil
}

// fabricRun drives txCount transfers through the Hyperledger-style
// pipeline — a solo orderer cutting batches into a 4-replica PBFT
// committer group, on a simulated network seeded with seed — with
// tracer (nil for none) attached to the orderer and every replica. It
// returns how many transactions peer c0 executed, in how many batches,
// and the wall time from the first submit to the last commit.
func fabricRun(seed int64, txCount int, tracer *obs.Tracer) (executed int, batches uint64, elapsed time.Duration, err error) {
	sim := simclock.NewSimulator()
	net := p2p.NewSimNetwork(sim, seed, p2p.WithLatency(2*time.Millisecond))
	orderer := ordering.NewSolo(ordering.BatchConfig{MaxTxs: 512, Timeout: 50 * time.Millisecond}, sim)
	orderer.SetTracer(tracer)
	ids := []p2p.NodeID{"c0", "c1", "c2", "c3"}
	for _, id := range ids {
		mux := p2p.NewMux()
		ep, err := net.Join(id, mux.Dispatch)
		if err != nil {
			return 0, 0, 0, err
		}
		c := ordering.NewCommitter(func(b ordering.Batch) {
			if id == "c0" {
				executed += len(b.Txs)
			}
		})
		replica, err := pbft.NewNode(id, ids, ep, sim, pbft.Config{ViewTimeout: 5 * time.Second}, c.Apply)
		if err != nil {
			return 0, 0, 0, err
		}
		replica.SetTracer(tracer)
		c.Attach(replica)
		mux.Handle(pbft.MsgPrefix, replica.HandleMessage)
		orderer.Subscribe(c.OnBatch)
	}
	start := time.Now()
	for i := 0; i < txCount; i++ {
		tx := types.NewTransfer(cryptoutil.ZeroAddress, cryptoutil.ZeroAddress, uint64(i), 1, uint64(i))
		if err := orderer.Submit(tx); err != nil {
			return 0, 0, 0, err
		}
	}
	sim.Run()
	elapsed = time.Since(start)
	if executed == 0 {
		return 0, 0, 0, fmt.Errorf("bench: fabric pipeline executed nothing")
	}
	return executed, orderer.Delivered(), elapsed, nil
}

// E6Proposers compares the work and fairness of the three proposal
// families under skewed resource distributions (§2.4, §5.4).
func E6Proposers(scale float64) (*Table, error) {
	rounds := scaled(2000, scale, 300)
	const validators = 16
	t := &Table{
		ID:         "E6",
		Title:      "Proposal work and fairness: PoW vs PoS vs PoET (§5.4)",
		PaperClaim: "PoW's computational costs are prohibitive; PoS/PoET preserve safety at a fraction of the work",
		Columns:    []string{"engine", "resource skew", "wins gini", "resource gini", "work/block"},
	}
	// Resource distribution: validator i holds 2^(i/4) units (skewed).
	resources := make([]float64, validators)
	for i := range resources {
		resources[i] = float64(uint64(1) << (i / 4))
	}

	// PoW: round winner = min exponential(difficulty/hashrate).
	rng := rand.New(rand.NewSource(61))
	const difficulty = 1 << 22 // expected hashes per block
	powWins := make([]float64, validators)
	for r := 0; r < rounds; r++ {
		best, bestT := 0, 1e18
		for i, h := range resources {
			sample := rng.ExpFloat64() * difficulty / h
			if sample < bestT {
				best, bestT = i, sample
			}
		}
		powWins[best]++
	}
	t.AddRow("pow", "2^(i/4) hash", fmtF(gini(powWins), 2), fmtF(gini(resources), 2),
		fmt.Sprintf("%d hashes", difficulty))

	// PoS: stake-weighted verifiable draw.
	stakes := make(map[cryptoutil.Address]uint64, validators)
	addrAt := make([]cryptoutil.Address, validators)
	for i := range addrAt {
		addrAt[i] = cryptoutil.KeyFromSeed([]byte{byte(i), 'e', '6'}).Address()
		stakes[addrAt[i]] = uint64(resources[i])
	}
	posEngine := pos.New(pos.Config{SlotInterval: time.Second, Stakes: stakes}, simclock.NewSimulator(), nil)
	posWins := make([]float64, validators)
	parent := cryptoutil.HashBytes([]byte("e6"))
	for s := uint64(0); s < uint64(rounds); s++ {
		p, err := posEngine.ProposerForSlot(parent, s)
		if err != nil {
			return nil, err
		}
		for i, a := range addrAt {
			if a == p {
				posWins[i]++
			}
		}
	}
	t.AddRow("pos", "2^(i/4) stake", fmtF(gini(posWins), 2), fmtF(gini(resources), 2), "1 signature")

	// PoET: equal validators, min enclave wait wins.
	enclave := poet.NewEnclave([]byte("e6"))
	poetWins := make([]float64, validators)
	parentH := cryptoutil.HashBytes([]byte("poet/e6"))
	for r := 0; r < rounds; r++ {
		parentH = cryptoutil.HashBytes([]byte("round"), parentH[:])
		best, bestW := 0, time.Duration(1<<62)
		for i := range addrAt {
			w := enclave.DrawWait(parentH, addrAt[i], 30*time.Second)
			if w < bestW {
				best, bestW = i, w
			}
		}
		poetWins[best]++
	}
	equal := make([]float64, validators)
	for i := range equal {
		equal[i] = 1
	}
	t.AddRow("poet", "equal enclaves", fmtF(gini(poetWins), 2), fmtF(gini(equal), 2), "1 certificate")
	t.Note("wins gini tracks resource gini for pow/pos; poet is uniform — and costs no hashing")
	return t, nil
}

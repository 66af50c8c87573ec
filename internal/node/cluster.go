package node

import (
	"fmt"
	"math/rand"
	"time"

	"dcsledger/internal/consensus"
	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/incentive"
	"dcsledger/internal/p2p"
	"dcsledger/internal/simclock"
	"dcsledger/internal/state"
	"dcsledger/internal/types"
	"dcsledger/internal/wal"
)

// clusterNetwork tags the genesis block of every simulated cluster.
const clusterNetwork = "dcsledger-sim"

// ClusterConfig describes a simulated network of peers. It is the
// shared harness for tests, examples, and every experiment in
// EXPERIMENTS.md.
type ClusterConfig struct {
	// N is the number of peers.
	N int
	// Miners enables block production on the first Miners peers
	// (0 = all peers mine).
	Miners int
	// Engine builds the per-node proposal engine. The key is the node's
	// signing identity.
	Engine func(i int, key *cryptoutil.KeyPair) consensus.Engine
	// ForkChoice builds the per-node branch selection (shared stateless
	// instances are fine).
	ForkChoice func() consensus.ForkChoice
	// Executor builds the per-node contract executor (optional).
	Executor func() state.Executor
	// Alloc funds accounts at genesis.
	Alloc map[cryptoutil.Address]uint64
	// Rewards is the block-subsidy schedule.
	Rewards incentive.Schedule
	// Seed makes the whole cluster reproducible.
	Seed int64
	// Latency is the base link latency (default 50ms).
	Latency time.Duration
	// Jitter adds random per-message latency.
	Jitter time.Duration
	// DropRate is the per-message loss probability.
	DropRate float64
	// Degree is the overlay degree (default 4) and Fanout the gossip
	// fanout (default 4).
	Degree, Fanout int
	// MaxBlockTxs bounds block size in transactions.
	MaxBlockTxs int
	// Sim supplies an existing simulator; engines that need the shared
	// clock (PoS slots) are built against it before the cluster exists.
	// A nil Sim creates a fresh one.
	Sim *simclock.Simulator
	// Net supplies an existing simulated network on Sim; harnesses that
	// script faults (partitions, link blocks) against the network they
	// own pass it here. A nil Net creates one from the link parameters
	// above. When Net is set, Latency/Jitter/DropRate are ignored.
	Net *p2p.SimNetwork
	// ExecWorkers enables optimistic parallel block execution on every
	// peer (0 = serial; see internal/exec).
	ExecWorkers int
	// ExecParanoid double-checks every parallel block against a serial
	// re-run on every peer.
	ExecParanoid bool
	// DataDir, when set, makes peer i durable: its store is opened at
	// DataDir(i) with the Store options and recovered into the node at
	// build time, and Restart can crash-recover it mid-run.
	DataDir func(i int) string
	// Store configures the durable stores of DataDir-backed peers.
	Store wal.StoreOptions
}

// ClusterKey derives the deterministic signing key of peer i in a
// cluster built with the given seed — exported so experiment code can
// compute validator sets (stake tables) before building the cluster.
func ClusterKey(seed int64, i int) *cryptoutil.KeyPair {
	return cryptoutil.KeyFromSeed([]byte(fmt.Sprintf("cluster/%d/key/%d", seed, i)))
}

// Cluster is a simulated network of full peers on one virtual clock.
type Cluster struct {
	Sim     *simclock.Simulator
	Net     *p2p.SimNetwork
	Genesis *types.Block
	Nodes   []*Node
	Keys    []*cryptoutil.KeyPair
	// Stores holds each peer's durable store (nil entries for
	// memory-only peers; see ClusterConfig.DataDir).
	Stores []*wal.DurableStore

	cfg  ClusterConfig
	ids  []p2p.NodeID
	topo map[p2p.NodeID][]p2p.NodeID
	away map[int]bool // peers currently off the network (Leave'd)
}

// NewCluster builds and wires the peers (call Start to begin mining).
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("node: cluster needs at least one peer")
	}
	if cfg.Engine == nil || cfg.ForkChoice == nil {
		return nil, fmt.Errorf("node: cluster needs Engine and ForkChoice factories")
	}
	if cfg.Degree <= 0 {
		cfg.Degree = 4
	}
	if cfg.Fanout <= 0 {
		cfg.Fanout = 4
	}
	if cfg.Latency <= 0 {
		cfg.Latency = 50 * time.Millisecond
	}
	sim := cfg.Sim
	if sim == nil {
		sim = simclock.NewSimulator()
	}
	net := cfg.Net
	if net == nil {
		opts := []p2p.SimOption{p2p.WithLatency(cfg.Latency)}
		if cfg.Jitter > 0 {
			opts = append(opts, p2p.WithJitter(cfg.Jitter))
		}
		if cfg.DropRate > 0 {
			opts = append(opts, p2p.WithDropRate(cfg.DropRate))
		}
		net = p2p.NewSimNetwork(sim, cfg.Seed, opts...)
	}

	ids := make([]p2p.NodeID, cfg.N)
	for i := range ids {
		ids[i] = p2p.NodeName(i)
	}
	topoRng := rand.New(rand.NewSource(cfg.Seed + 1))
	topo := p2p.RandomTopology(ids, cfg.Degree, topoRng)

	c := &Cluster{
		Sim:     sim,
		Net:     net,
		Genesis: NewGenesis(clusterNetwork),
		cfg:     cfg,
		ids:     ids,
		topo:    topo,
		away:    make(map[int]bool),
	}
	for i := 0; i < cfg.N; i++ {
		n, ds, err := c.buildNode(i)
		if err != nil {
			return nil, err
		}
		ep, err := net.Join(ids[i], n.Mux().Dispatch)
		if err != nil {
			return nil, err
		}
		c.attach(i, n, ep)
		c.Nodes = append(c.Nodes, n)
		c.Keys = append(c.Keys, ClusterKey(cfg.Seed, i))
		c.Stores = append(c.Stores, ds)
	}
	return c, nil
}

// buildNode constructs peer i from the cluster config, opening (and
// recovering from) its durable store when DataDir is set.
func (c *Cluster) buildNode(i int) (*Node, *wal.DurableStore, error) {
	cfg := c.cfg
	key := ClusterKey(cfg.Seed, i)
	mine := cfg.Miners == 0 || i < cfg.Miners
	var executor state.Executor
	if cfg.Executor != nil {
		executor = cfg.Executor()
	}
	var (
		ds  *wal.DurableStore
		rec *wal.Recovery
		err error
	)
	if cfg.DataDir != nil {
		ds, rec, err = wal.OpenStore(cfg.DataDir(i), cfg.Store)
		if err != nil {
			return nil, nil, fmt.Errorf("node: cluster peer %d store: %w", i, err)
		}
	}
	n, err := New(Config{
		ID:           c.ids[i],
		Key:          key,
		Engine:       cfg.Engine(i, key),
		ForkChoice:   cfg.ForkChoice(),
		Genesis:      c.Genesis,
		Alloc:        cfg.Alloc,
		Executor:     executor,
		Rewards:      cfg.Rewards,
		Clock:        c.Sim,
		Mine:         mine,
		MaxBlockTxs:  cfg.MaxBlockTxs,
		ExecWorkers:  cfg.ExecWorkers,
		ExecParanoid: cfg.ExecParanoid,
		Durable:      ds,
	})
	if err != nil {
		return nil, nil, err
	}
	if rec != nil {
		if err := n.Recover(rec); err != nil {
			return nil, nil, fmt.Errorf("node: cluster peer %d recover: %w", i, err)
		}
	}
	return n, ds, nil
}

// attach wires peer i's gossiper to an endpoint. The gossiper RNG is
// re-derived from the same seed formula every time, so a rejoin resets
// the peer's fanout stream identically in identically-seeded runs.
func (c *Cluster) attach(i int, n *Node, ep *p2p.SimEndpoint) {
	g := p2p.NewGossiper(ep, c.topo[c.ids[i]], c.cfg.Fanout,
		rand.New(rand.NewSource(c.cfg.Seed+int64(i)*104729)))
	n.Attach(ep, g)
}

// Leave takes peer i off the network: it stops proposing and its id
// departs the simnet (in-flight traffic to it is dropped). The node
// keeps its in-memory chain, so a later Rejoin resyncs from where it
// left off via the ancestor-fetch protocol.
func (c *Cluster) Leave(i int) error {
	if c.away[i] {
		return fmt.Errorf("node: cluster peer %d already away", i)
	}
	c.Nodes[i].Stop()
	if err := c.Net.Leave(c.ids[i]); err != nil {
		return err
	}
	c.away[i] = true
	return nil
}

// Rejoin puts a departed peer back on the network with a fresh endpoint
// and gossiper and resumes proposing.
func (c *Cluster) Rejoin(i int) error {
	if !c.away[i] {
		return fmt.Errorf("node: cluster peer %d is not away", i)
	}
	n := c.Nodes[i]
	ep, err := c.Net.Rejoin(c.ids[i], n.Mux().Dispatch)
	if err != nil {
		return err
	}
	c.attach(i, n, ep)
	delete(c.away, i)
	n.Start()
	return nil
}

// Restart crash-recovers durable peer i: the old process "dies" (leaves
// the network if still on it, its store is closed), then a fresh node
// reopens the same data directory, replays the WAL via Recover, rejoins
// the network, and resumes. Only valid when ClusterConfig.DataDir is
// set.
func (c *Cluster) Restart(i int) error {
	if c.cfg.DataDir == nil {
		return fmt.Errorf("node: cluster peer %d is not durable; Restart needs DataDir", i)
	}
	if !c.away[i] {
		if err := c.Leave(i); err != nil {
			return err
		}
	}
	if ds := c.Stores[i]; ds != nil {
		_ = ds.Close() // the crashed incarnation's handle; its error no longer matters
	}
	n, ds, err := c.buildNode(i)
	if err != nil {
		return err
	}
	c.Nodes[i], c.Stores[i] = n, ds
	return c.Rejoin(i)
}

// Start begins mining on every configured peer.
func (c *Cluster) Start() {
	for _, n := range c.Nodes {
		n.Start()
	}
}

// Stop halts proposal on every peer.
func (c *Cluster) Stop() {
	for _, n := range c.Nodes {
		n.Stop()
	}
}

// Addresses lists the peers' account addresses.
func (c *Cluster) Addresses() []cryptoutil.Address {
	out := make([]cryptoutil.Address, len(c.Nodes))
	for i, n := range c.Nodes {
		out[i] = n.Address()
	}
	return out
}

// ConsistentPrefix returns the length of the longest common main-chain
// prefix across all peers — the paper's consistency metric: after
// gossip settles, it should equal every peer's chain height.
func (c *Cluster) ConsistentPrefix() uint64 {
	all := make([]int, len(c.Nodes))
	for i := range all {
		all[i] = i
	}
	return c.ConsistentPrefixOf(all)
}

// ConsistentPrefixOf is ConsistentPrefix restricted to the given peer
// indices — the agreement metric over, e.g., the live majority while
// some peers are partitioned away.
func (c *Cluster) ConsistentPrefixOf(idxs []int) uint64 {
	if len(idxs) == 0 {
		return 0
	}
	depth := uint64(0)
	for h := uint64(0); ; h++ {
		first, ok := c.Nodes[idxs[0]].Chain().AtHeight(h)
		if !ok {
			return depth
		}
		for _, i := range idxs[1:] {
			got, ok := c.Nodes[i].Chain().AtHeight(h)
			if !ok || got != first {
				return depth
			}
		}
		depth = h + 1
	}
}

// ForkRate returns the fraction of accepted blocks that are off the
// main chain at node 0 — the stale/uncle rate experiment E3 reports.
func (c *Cluster) ForkRate() float64 { return c.ForkRateOf(0) }

// ForkRateOf is ForkRate observed at peer i.
func (c *Cluster) ForkRateOf(i int) float64 {
	n := c.Nodes[i]
	total := n.Tree().Len() - 1 // exclude genesis
	if total <= 0 {
		return 0
	}
	main := int(n.Chain().Height())
	return float64(total-main) / float64(total)
}

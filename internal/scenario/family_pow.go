package scenario

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"time"

	"dcsledger/internal/consensus"
	"dcsledger/internal/consensus/forkchoice"
	"dcsledger/internal/consensus/pow"
	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/incentive"
	"dcsledger/internal/node"
	"dcsledger/internal/seglog"
	"dcsledger/internal/types"
	"dcsledger/internal/wal"
)

// workloadSenders is how many funded accounts the client workload
// rotates through; independent nonce chains keep one stalled sender
// from blocking the rest of the load.
const workloadSenders = 8

// selfishPollEvery is the cadence at which selfish miners compare their
// private lead against the best honest chain.
const selfishPollEvery = 2 * time.Second

// powFamily drives a node.Cluster of PoW miners with longest-chain
// fork choice — the Nakamoto configuration whose dependability frontier
// (fork rate, K-deep finality) the scenario reports measure.
type powFamily struct {
	c       *node.Cluster
	senders []*cryptoutil.KeyPair
	nonces  []uint64

	selfish map[int]bool

	// Finality ledger: once a block is FinalityDepth deep in the common
	// prefix of every live node it is recorded here, append-only; any
	// live node later disagreeing with an entry is a finality reversal.
	finalized    map[uint64]cryptoutil.Hash
	latencySum   time.Duration
	committedTxs uint64
	lastPrefix   uint64
}

func newPowFamily() *powFamily {
	return &powFamily{
		selfish:   make(map[int]bool),
		finalized: make(map[uint64]cryptoutil.Hash),
	}
}

func (f *powFamily) build(e *Engine) error {
	sc := e.Scenario
	f.senders = make([]*cryptoutil.KeyPair, workloadSenders)
	f.nonces = make([]uint64, workloadSenders)
	alloc := make(map[cryptoutil.Address]uint64, workloadSenders)
	for i := range f.senders {
		f.senders[i] = cryptoutil.KeyFromSeed([]byte(fmt.Sprintf("scenario/%d/wl/%d", sc.Seed, i)))
		alloc[f.senders[i].Address()] = 1 << 40
	}
	cfg := node.ClusterConfig{
		N:      sc.N,
		Miners: sc.Miners,
		Engine: func(i int, key *cryptoutil.KeyPair) consensus.Engine {
			return pow.New(pow.Config{
				TargetInterval:    10 * time.Second,
				InitialDifficulty: 256,
				HashRate:          25.6,
			}, rand.New(rand.NewSource(sc.Seed+int64(i)+100)))
		},
		ForkChoice: func() consensus.ForkChoice { return forkchoice.LongestChain{} },
		Alloc:      alloc,
		Rewards:    incentive.Schedule{InitialReward: 50},
		Seed:       sc.Seed,
		Latency:    sc.Latency,
		Jitter:     sc.Jitter,
		DropRate:   sc.DropRate,
		Degree:     sc.Degree,
		Fanout:     sc.Fanout,
		Sim:        e.Sim,
		Net:        e.Net,
	}
	if sc.Durable {
		cfg.DataDir = func(i int) string {
			return filepath.Join(sc.DataDir, fmt.Sprintf("n%04d", i))
		}
		cfg.Store = wal.StoreOptions{
			CheckpointEvery: 8,
			Clock:           e.Sim.Now,
		}
	}
	c, err := node.NewCluster(cfg)
	if err != nil {
		return err
	}
	f.c = c
	c.Start()
	return nil
}

func (f *powFamily) submit(e *Engine, k uint64) {
	live := e.Live()
	if len(live) == 0 {
		return
	}
	j := int(k) % len(f.senders)
	to := f.senders[(j+1)%len(f.senders)].Address()
	tx := types.NewTransfer(f.senders[j].Address(), to, 1, 1, f.nonces[j])
	if err := tx.SignDeterministic(f.senders[j]); err != nil {
		return
	}
	target := live[int(k)%len(live)]
	if err := f.c.Nodes[target].SubmitTx(tx); err != nil {
		return
	}
	f.nonces[j]++
}

func (f *powFamily) apply(e *Engine, a Action) error {
	switch act := a.(type) {
	case Leave:
		return f.c.Leave(act.Node)
	case Rejoin:
		return f.c.Rejoin(act.Node)
	case Crash:
		mode, err := parseFailMode(act.Mode)
		if err != nil {
			return err
		}
		ds := f.c.Stores[act.Node]
		if ds == nil {
			return fmt.Errorf("node %d has no durable store", act.Node)
		}
		ds.SetFailpoint(mode, 1)
		return nil
	case Restart:
		if !e.live[act.Node] {
			return fmt.Errorf("node %d is away; Restart restarts a live crashed node", act.Node)
		}
		crashed := f.c.Stores[act.Node] != nil && f.c.Stores[act.Node].Failed() != nil
		if err := f.c.Restart(act.Node); err != nil {
			return err
		}
		e.note("restart %d: crashed store=%v recovered height=%d",
			act.Node, crashed, f.c.Nodes[act.Node].Chain().Height())
		// Invariant: the recovered node re-proves its head state root.
		n := f.c.Nodes[act.Node]
		head := n.Chain().HeadBlock()
		st, ok := n.StateAt(head.Hash())
		if !ok {
			e.violate("restart %d: no state for recovered head %s", act.Node, head.Hash().Short())
		} else if root := st.Commit(); root != head.Header.StateRoot {
			e.violate("restart %d: recovered state root %s != header root %s",
				act.Node, root.Short(), head.Header.StateRoot.Short())
		}
		if f.selfish[act.Node] {
			f.armSelfish(act.Node)
		}
		return nil
	case Selfish:
		if act.On && !f.selfish[act.Node] {
			f.selfish[act.Node] = true
			f.armSelfish(act.Node)
			f.pollSelfish(e, act.Node)
		} else if !act.On && f.selfish[act.Node] {
			delete(f.selfish, act.Node)
			f.c.Nodes[act.Node].SetPublishInterceptor(nil)
			f.c.Nodes[act.Node].ReleaseWithheld()
		}
		return nil
	case Spam:
		e.spam(act, func(s *spammer) {
			g := f.c.Nodes[act.Node].Gossiper()
			if g == nil {
				return
			}
			payload := make([]byte, s.size)
			s.rng.Read(payload)
			// The gossip layer floods unknown topics too, so junk rides
			// the same overlay as real traffic.
			g.Publish("junk", payload)
		})
		return nil
	default:
		return fmt.Errorf("pow family does not support %T", a)
	}
}

func (f *powFamily) armSelfish(i int) {
	f.c.Nodes[i].SetPublishInterceptor(func(*types.Block) bool { return false })
}

// pollSelfish runs the withhold/release policy: keep the private chain
// secret while it leads the best honest chain by more than one block;
// release it the moment the honest miners threaten to catch up.
func (f *powFamily) pollSelfish(e *Engine, i int) {
	e.every(selfishPollEvery,
		func() bool { return !f.selfish[i] || e.Elapsed() >= e.Scenario.Duration },
		func() {
			if e.Scenario.N < 2 || !e.live[i] {
				return
			}
			private := f.c.Nodes[i].Chain().Height()
			honest := uint64(0)
			for _, j := range e.Live() {
				if j == i {
					continue
				}
				if h := f.c.Nodes[j].Chain().Height(); h > honest {
					honest = h
				}
			}
			if private <= honest+1 && f.c.Nodes[i].WithheldCount() > 0 {
				f.c.Nodes[i].ReleaseWithheld()
			}
		})
}

func (f *powFamily) sweep(e *Engine) {
	live := e.Live()
	if len(live) == 0 {
		return
	}
	prefix := f.c.ConsistentPrefixOf(live)
	f.lastPrefix = prefix
	k := uint64(e.Scenario.FinalityDepth)

	// Advance the finality ledger: heights whose depth in the common
	// prefix is at least K are final. Genesis is trivially final and
	// carries no latency; skip it.
	if prefix > k {
		ref := f.c.Nodes[live[0]]
		for h := uint64(1); h+k < prefix; h++ {
			if _, done := f.finalized[h]; done {
				continue
			}
			hash, ok := ref.Chain().AtHeight(h)
			if !ok {
				break
			}
			hdr, ok := ref.Tree().Header(hash)
			if !ok {
				break
			}
			f.finalized[h] = hash
			f.latencySum += e.Sim.Now().Sub(time.Unix(0, hdr.Time))
			if txs, _ := ref.Tree().TxCount(hash); txs > 1 {
				f.committedTxs += uint64(txs - 1) // exclude coinbase
			}
		}
	}

	// No finalized block may leave any live node's main chain.
	for h := uint64(1); ; h++ {
		want, ok := f.finalized[h]
		if !ok {
			break
		}
		for _, j := range live {
			got, ok := f.c.Nodes[j].Chain().AtHeight(h)
			if ok && got != want {
				e.violate("finality reversal at node %d height %d: %s -> %s",
					j, h, want.Short(), got.Short())
			}
		}
	}
}

func (f *powFamily) quiesce(e *Engine) {
	// Sorted order: releasing withheld blocks publishes, so the disarm
	// order is part of the determinism contract.
	miners := make([]int, 0, len(f.selfish))
	for i := range f.selfish {
		miners = append(miners, i)
	}
	sort.Ints(miners)
	for _, i := range miners {
		f.c.Nodes[i].SetPublishInterceptor(nil)
		f.c.Nodes[i].ReleaseWithheld()
	}
	f.selfish = make(map[int]bool)
}

func (f *powFamily) finish(e *Engine) {
	rep := e.Report
	rep.Height = f.lastPrefix
	rep.Committed = f.committedTxs
	live := e.Live()
	if len(live) > 0 {
		rep.ForkRate = f.c.ForkRateOf(live[0])
	}
	if n := len(f.finalized); n > 0 {
		rep.FinalityLatency = f.latencySum / time.Duration(n)
	}
	for _, ds := range f.c.Stores {
		if ds != nil {
			ds.Close()
		}
	}
}

func parseFailMode(s string) (seglog.FailMode, error) {
	switch s {
	case "cut":
		return seglog.FailCut, nil
	case "torn", "":
		return seglog.FailTorn, nil
	case "garble":
		return seglog.FailGarble, nil
	default:
		return 0, fmt.Errorf("unknown failpoint mode %q", s)
	}
}

package node

import (
	"sync"
	"testing"
	"time"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/metrics"
	"dcsledger/internal/obs"
	"dcsledger/internal/p2p"
)

// TestRegisterMetrics exports a mining node's counters through the
// metrics registry and checks they reflect real activity.
func TestRegisterMetrics(t *testing.T) {
	c := powCluster(t, 3, 7, nil)
	reg := metrics.NewRegistry()
	c.Nodes[0].RegisterMetrics(reg)

	// Before any activity: zero counters, genesis-only gauges.
	snap := reg.Snapshot()
	if snap["node_blocks_accepted_total"] != 0 || snap["node_chain_height"] != 0 {
		t.Fatalf("pre-run snapshot %v", snap)
	}
	if snap["node_block_tree_size"] != 1 {
		t.Fatalf("tree size %d, want 1 (genesis)", snap["node_block_tree_size"])
	}

	c.Start()
	c.Sim.RunFor(3 * time.Minute)
	c.Stop()
	c.Sim.RunFor(30 * time.Second)

	snap = reg.Snapshot()
	if snap["node_blocks_accepted_total"] == 0 {
		t.Fatalf("no blocks accepted: %v", snap)
	}
	if snap["node_chain_height"] == 0 {
		t.Fatalf("chain height still 0: %v", snap)
	}
	m := c.Nodes[0].Metrics()
	if snap["node_blocks_accepted_total"] != int64(m.BlocksAccepted) ||
		snap["node_blocks_proposed_total"] != int64(m.BlocksProposed) {
		t.Fatalf("snapshot %v diverges from Metrics %+v", snap, m)
	}
	if snap["node_chain_height"] != int64(c.Nodes[0].Chain().Height()) {
		t.Fatalf("height gauge %d != chain %d", snap["node_chain_height"], c.Nodes[0].Chain().Height())
	}
}

// TestScrapeIsOneSnapshot scrapes a node from several goroutines while it
// connects blocks. A scrape holds the node lock once, so the series in it
// describe one instant: the tree holds genesis plus exactly the accepted
// blocks, and the chain is no taller than the tree.
func TestScrapeIsOneSnapshot(t *testing.T) {
	n, genesis := lifecycleNode(t, 0)
	reg := metrics.NewRegistry()
	n.RegisterMetrics(reg)
	blocks := newChainBuilder(t, genesis).chain(genesis, 400, cryptoutil.KeyFromSeed([]byte("m")).Address())

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				snap := reg.Snapshot()
				tree, accepted, height := snap["node_block_tree_size"], snap["node_blocks_accepted_total"], snap["node_chain_height"]
				if tree != 1+accepted || height > tree-1 {
					t.Errorf("torn scrape: tree size %d, accepted %d, height %d", tree, accepted, height)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	handleAll(t, n, blocks)
	close(done)
	wg.Wait()
	if got := reg.Snapshot()["node_chain_height"]; got != 400 {
		t.Fatalf("height %d after 400 blocks", got)
	}
}

// TestSealSpanNamesNodeAndBlock: a pow_seal span is labelled with the
// node that sealed and names the block it sealed, the same block that
// node's block_propose span names, so the seal can be told apart from
// the build inside a proposal and followed across nodes.
func TestSealSpanNamesNodeAndBlock(t *testing.T) {
	c := powCluster(t, 3, 7, nil)
	tracer := obs.NewTracer(1 << 12)
	for _, n := range c.Nodes {
		n.SetTracer(tracer)
	}
	c.Start()
	c.Sim.RunFor(3 * time.Minute)
	c.Stop()
	c.Sim.RunFor(30 * time.Second)

	proposed := map[string]string{} // peer/block of every block_propose
	for _, s := range tracer.Snapshot() {
		if s.Stage == obs.StageBlockPropose {
			proposed[s.Peer+"/"+s.Block] = s.Block
		}
	}
	seals := 0
	for _, s := range tracer.Snapshot() {
		if s.Stage != obs.StagePowSeal {
			continue
		}
		seals++
		if _, ok := proposed[s.Peer+"/"+s.Block]; !ok || s.Block == "" || s.N == 0 {
			t.Fatalf("pow_seal span %+v names no block its peer proposed", s)
		}
	}
	if seals == 0 || seals != len(proposed) {
		t.Fatalf("%d pow_seal spans, %d proposals", seals, len(proposed))
	}
}

// TestForkChoiceObservedByNode: the node observes its own fork choice, a
// bare LongestChain, as fork_choice spans that name the node, N = 1 when
// the answer was not the head and 0 when it was. Per node the spans with
// N = 1 are what Metrics().ForkChoiceSwitches and the scraped
// forkchoice_switches_total count.
func TestForkChoiceObservedByNode(t *testing.T) {
	c := powCluster(t, 3, 7, nil)
	tracer := obs.NewTracer(1 << 14)
	regs := make(map[string]*metrics.Registry, len(c.Nodes))
	for i, n := range c.Nodes {
		n.SetTracer(tracer)
		reg := metrics.NewRegistry()
		n.RegisterMetrics(reg)
		regs[string(p2p.NodeName(i))] = reg
	}
	c.Start()
	c.Sim.RunFor(3 * time.Minute)
	c.Stop()
	c.Sim.RunFor(30 * time.Second)
	if tracer.Evicted() != 0 {
		t.Fatalf("the ring evicted %d spans: counts below would be short", tracer.Evicted())
	}

	switched := make(map[string]uint64, len(c.Nodes))
	for _, s := range tracer.Snapshot() {
		if s.Stage != obs.StageForkChoice {
			continue
		}
		if _, ok := regs[s.Peer]; !ok || s.N > 1 {
			t.Fatalf("fork_choice span %+v: want the peer of a node and N of 0 or 1", s)
		}
		switched[s.Peer] += s.N
	}
	for i, n := range c.Nodes {
		id := string(p2p.NodeName(i))
		m := n.Metrics()
		if n.Chain().Height() == 0 || switched[id] == 0 {
			t.Fatalf("%s: height %d, %d switches: the chain never grew", id, n.Chain().Height(), switched[id])
		}
		if m.ForkChoiceSwitches != switched[id] {
			t.Errorf("%s: Metrics().ForkChoiceSwitches = %d, spans with N = 1: %d", id, m.ForkChoiceSwitches, switched[id])
		}
		if got := regs[id].Snapshot()["forkchoice_switches_total"]; got != int64(switched[id]) {
			t.Errorf("%s: forkchoice_switches_total = %d, spans with N = 1: %d", id, got, switched[id])
		}
	}
}

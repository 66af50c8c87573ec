package main

import (
	"math/rand"
	"testing"
	"time"

	"dcsledger/internal/consensus/forkchoice"
	"dcsledger/internal/consensus/pow"
	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/incentive"
	"dcsledger/internal/node"
	"dcsledger/internal/simclock"
	"dcsledger/internal/wal"
)

// durableTestNode builds a ledgerd-shaped node over the data dir using
// the same openDurable path run() uses, recovering whatever the
// directory holds.
func durableTestNode(t *testing.T, dir string) (*node.Node, *wal.DurableStore) {
	t.Helper()
	ds, rec, err := openDurable(dir, wal.FsyncAlways, 8)
	if err != nil {
		t.Fatalf("openDurable: %v", err)
	}
	t.Cleanup(func() { ds.Close() })
	n, err := node.New(node.Config{
		ID:  "api-test",
		Key: cryptoutil.KeyFromSeed([]byte("api-test")),
		Engine: pow.New(pow.Config{
			TargetInterval:    time.Second,
			InitialDifficulty: 64,
			HashRate:          64,
		}, rand.New(rand.NewSource(1))),
		ForkChoice: forkchoice.LongestChain{},
		Genesis:    node.NewGenesis("api-test"),
		Rewards:    incentive.Schedule{InitialReward: 50},
		Clock:      simclock.Wall{},
		Durable:    ds,
	})
	if err != nil {
		t.Fatalf("node.New: %v", err)
	}
	if err := n.Recover(rec); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return n, ds
}

// TestDataDirRecovery exercises the -data-dir wiring end to end: a node
// accepts a block, shuts down, and a second node over the same
// directory comes back at the exact same head.
func TestDataDirRecovery(t *testing.T) {
	dir := t.TempDir()
	n1, ds1 := durableTestNode(t, dir)
	b := mustMine(t, n1)
	if err := n1.HandleBlock(b); err != nil {
		t.Fatalf("HandleBlock: %v", err)
	}
	wantHead, wantHeight := n1.Chain().Head(), n1.Chain().Height()
	if wantHeight != 1 {
		t.Fatalf("height = %d, want 1", wantHeight)
	}
	if err := ds1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	n2, _ := durableTestNode(t, dir)
	if n2.Chain().Head() != wantHead || n2.Chain().Height() != wantHeight {
		t.Fatalf("recovered head %s@%d, want %s@%d",
			n2.Chain().Head().Short(), n2.Chain().Height(), wantHead.Short(), wantHeight)
	}
}

func TestOpenDurableRejectsBadPolicy(t *testing.T) {
	f := fsyncFlag{wal.FsyncInterval}
	if err := f.Set("sometimes"); err == nil {
		t.Fatal("-fsync accepted an unknown fsync policy")
	}
	if err := f.Set("Always"); err != nil || f.policy != wal.FsyncAlways {
		t.Fatalf("-fsync Always: policy %v, err %v", f.policy, err)
	}
}

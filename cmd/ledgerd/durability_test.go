package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dcsledger/internal/consensus/forkchoice"
	"dcsledger/internal/consensus/pow"
	"dcsledger/internal/contract"
	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/incentive"
	"dcsledger/internal/metrics"
	"dcsledger/internal/node"
	"dcsledger/internal/seglog"
	"dcsledger/internal/simclock"
	"dcsledger/internal/types"
	"dcsledger/internal/wal"
)

// durableTestNode builds a ledgerd-shaped node over the data dir using
// the same openDurable path run() uses, recovering whatever the
// directory holds.
func durableTestNode(t *testing.T, dir string) (*node.Node, *wal.DurableStore) {
	t.Helper()
	n, ds, _ := recoveredNode(t, dir, testNetwork, pow.Config{TargetInterval: time.Second, InitialDifficulty: 64, HashRate: 64})
	return n, ds
}

// testNetwork is the genesis tag of the nodes these tests build.
const testNetwork = "api-test"

// recoveredNode is durableTestNode on the genesis tagged network, under
// the pow configuration cfg, and returns the Recovery it recovered from
// as well.
func recoveredNode(t *testing.T, dir, network string, cfg pow.Config) (*node.Node, *wal.DurableStore, *wal.Recovery) {
	t.Helper()
	ds, rec, err := openDurable(dir, seglog.SyncAlways, 8)
	if err != nil {
		t.Fatalf("openDurable: %v", err)
	}
	t.Cleanup(func() { ds.Close() })
	n, err := node.New(node.Config{
		ID:         "api-test",
		Key:        cryptoutil.KeyFromSeed([]byte("api-test")),
		Engine:     pow.New(cfg, rand.New(rand.NewSource(1))),
		ForkChoice: forkchoice.LongestChain{},
		Genesis:    node.NewGenesis(network),
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
	return n, ds, rec
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

// TestShortRecoveryIsLogged: a chain journaled under one -interval, PoW's
// retarget target, or one -network, the genesis tag, and recovered under
// another comes back shorter, and the daemon says so in one line naming
// both heights, the rejections and the -network and -interval in force; a
// restart under the same flags logs no such line.
func TestShortRecoveryIsLogged(t *testing.T) {
	const blocks = 6
	mined := pow.Config{TargetInterval: time.Second, InitialDifficulty: 64, HashRate: 64, RetargetWindow: 2}
	dir := t.TempDir()
	n, ds, _ := recoveredNode(t, dir, testNetwork, mined)
	for i := 0; i < blocks; i++ {
		if err := n.HandleBlock(mineNext(t, n)); err != nil {
			t.Fatalf("HandleBlock: %v", err)
		}
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	restart := func(network string, cfg pow.Config) (*node.Node, []string) {
		t.Helper()
		n, ds, rec := recoveredNode(t, dir, network, cfg)
		defer ds.Close()
		var lines []string
		logShortRecovery(func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }, n, rec, network, cfg.TargetInterval)
		return n, lines
	}

	if n, lines := restart(testNetwork, mined); n.Chain().Height() != blocks || len(lines) != 0 {
		t.Fatalf("a clean restart recovered height %d and logged %q", n.Chain().Height(), lines)
	}
	other := mined
	other.TargetInterval = 10 * time.Second
	for _, c := range []struct {
		network string
		cfg     pow.Config
		flags   string
	}{
		{testNetwork, other, "-network api-test -interval 10s"},
		{"other-net", mined, "-network other-net -interval 1s"},
	} {
		n, lines := restart(c.network, c.cfg)
		m := n.Metrics()
		if n.Chain().Height() >= blocks || m.BlocksRejected == 0 {
			t.Fatalf("under %s: recovered height %d with %d rejected: the case is not exercised", c.flags, n.Chain().Height(), m.BlocksRejected)
		}
		want := fmt.Sprintf("journal tip height %d, recovered height %d, %d block(s) rejected, %d re-root(s) at a checkpoint, under %s",
			blocks, n.Chain().Height(), m.BlocksRejected, m.RecoveryReroots, c.flags)
		if len(lines) != 1 || !strings.Contains(lines[0], want) {
			t.Fatalf("logged %q, want one line with %q", lines, want)
		}
	}
}

func TestOpenDurableRejectsBadPolicy(t *testing.T) {
	f := fsyncFlag{seglog.SyncInterval}
	if err := f.Set("sometimes"); err == nil {
		t.Fatal("-fsync accepted an unknown fsync policy")
	}
	if err := f.Set("Always"); err != nil || f.policy != seglog.SyncAlways {
		t.Fatalf("-fsync Always: policy %v, err %v", f.policy, err)
	}
}

// mineNext seals one coinbase-only block on the node's head, whatever
// its height.
func mineNext(t *testing.T, n *node.Node) *types.Block {
	t.Helper()
	parent := n.Chain().HeadBlock()
	key := cryptoutil.KeyFromSeed([]byte("api-test"))
	height := parent.Header.Height + 1
	b := types.NewBlock(parent.Hash(), height, parent.Header.Time+int64(time.Second), key.Address(),
		[]*types.Transaction{types.NewCoinbase(key.Address(), 50, height)})
	st, ok := n.StateAt(parent.Hash())
	if !ok {
		t.Fatal("no tip state")
	}
	st = st.Copy()
	if _, err := st.ApplyBlock(b, 50); err != nil {
		t.Fatalf("self-apply: %v", err)
	}
	b.Header.StateRoot = st.Commit()
	eng := pow.New(pow.Config{TargetInterval: time.Second, InitialDifficulty: 64, HashRate: 64},
		rand.New(rand.NewSource(2)))
	if err := eng.Prepare(&b.Header, parent); err != nil {
		t.Fatal(err)
	}
	if err := eng.Seal(b, parent); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBlockEndpointReadsOldBodiesBack: GET /block of heights whose
// bodies left memory long ago, from several clients at once, while the
// node connects blocks (run under -race). Every answer is the block
// that was connected. Once the journal cannot be read any more the
// endpoint says 503, and a height the chain does not have stays 404:
// never 200 with null.
func TestBlockEndpointReadsOldBodiesBack(t *testing.T) {
	n, ds := durableTestNode(t, t.TempDir())
	srv := httptest.NewServer(apiHandler(n, contract.NewExecutor(contract.NewRegistry()), metrics.NewRegistry(), nil, false))
	defer srv.Close()

	const old, total = 40, 120
	hashes := make([]cryptoutil.Hash, total+1)
	connect := func() {
		b := mineNext(t, n)
		if err := n.HandleBlock(b); err != nil {
			t.Fatalf("HandleBlock h=%d: %v", b.Header.Height, err)
		}
		hashes[b.Header.Height] = b.Hash()
	}
	for n.Chain().Height() < 2*old {
		connect()
	}

	var clients sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < 3; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				height := uint64(1 + (i*3+c)%old)
				resp, err := http.Get(fmt.Sprintf("%s/block?height=%d", srv.URL, height))
				if err != nil {
					t.Errorf("GET /block?height=%d: %v", height, err)
					return
				}
				var b types.Block
				err = json.NewDecoder(resp.Body).Decode(&b)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || err != nil || b.Hash() != hashes[height] {
					t.Errorf("GET /block?height=%d: status %d, decode %v, hash %s", height, resp.StatusCode, err, b.Hash().Short())
					return
				}
			}
		}(c)
	}
	for n.Chain().Height() < total {
		connect()
	}
	close(stop)
	clients.Wait()
	if m := n.Metrics(); m.BodyReads == 0 || m.BodyReadErrors != 0 {
		t.Fatalf("%d read-backs, %d errors: the old heights were not served from the journal", m.BodyReads, m.BodyReadErrors)
	}

	if code := getJSON(t, fmt.Sprintf("%s/block?height=%d", srv.URL, total+1), nil); code != http.StatusNotFound {
		t.Fatalf("GET /block above the head: status %d, want 404", code)
	}
	ds.Close()
	if code := getJSON(t, srv.URL+"/block?height=1", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("GET /block with the journal closed: status %d, want 503", code)
	}
	if code := getJSON(t, fmt.Sprintf("%s/block?height=%d", srv.URL, total), nil); code != http.StatusOK {
		t.Fatalf("GET /block of the resident head with the journal closed: status %d, want 200", code)
	}
	if n.Metrics().BodyReadErrors == 0 {
		t.Fatal("the failed read-back was not counted")
	}
}

// TestOpenCutIsLogged: a journal whose last segment ends in junk bytes is
// cut back to its last whole record at the next open, and the daemon says
// so in one line naming the store and the bytes; a clean reopen logs
// nothing.
func TestOpenCutIsLogged(t *testing.T) {
	dir := t.TempDir()
	n, ds, _ := recoveredNode(t, dir, testNetwork, pow.Config{TargetInterval: time.Second, InitialDifficulty: 64, HashRate: 64})
	if err := n.HandleBlock(mineNext(t, n)); err != nil {
		t.Fatalf("HandleBlock: %v", err)
	}
	ds.Close()
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	reopen := func() []string {
		t.Helper()
		n, ds, _ := recoveredNode(t, dir, testNetwork, pow.Config{TargetInterval: time.Second, InitialDifficulty: 64, HashRate: 64})
		defer ds.Close()
		if n.Chain().Height() != 1 {
			t.Fatalf("recovered height %d, want 1", n.Chain().Height())
		}
		var lines []string
		logOpenCut(func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }, "the journal", ds.Stats().WAL.TornTruncated)
		return lines
	}
	if lines := reopen(); len(lines) != 1 || !strings.Contains(lines[0], "opening the journal cut 5 byte(s) off its log") {
		t.Fatalf("logged %q, want one line naming the journal and the 5 bytes", lines)
	}
	if lines := reopen(); len(lines) != 0 {
		t.Fatalf("a clean reopen logged %q", lines)
	}
}

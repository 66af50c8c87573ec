package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"dcsledger/internal/consensus/forkchoice"
	"dcsledger/internal/consensus/pow"
	"dcsledger/internal/contract"
	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/incentive"
	"dcsledger/internal/metrics"
	"dcsledger/internal/mpt"
	"dcsledger/internal/node"
	"dcsledger/internal/nodestore"
	"dcsledger/internal/obs"
	"dcsledger/internal/simclock"
	"dcsledger/internal/state"
	"dcsledger/internal/types"
	"dcsledger/internal/wallet"
)

func testServer(t *testing.T, alloc map[cryptoutil.Address]uint64) (*httptest.Server, *node.Node) {
	t.Helper()
	executor := contract.NewExecutor(contract.NewRegistry())
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
		Alloc:      alloc,
		Executor:   executor,
		Rewards:    incentive.Schedule{InitialReward: 50},
		Clock:      simclock.Wall{},
	})
	if err != nil {
		t.Fatalf("node.New: %v", err)
	}
	reg := metrics.NewRegistry()
	n.RegisterMetrics(reg)
	tracer := obs.NewTracer(64)
	n.SetTracer(tracer)
	srv := httptest.NewServer(apiHandler(n, executor, reg, tracer, true))
	t.Cleanup(srv.Close)
	return srv, n
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestHTTPAPI(t *testing.T) {
	alice := wallet.FromSeed("alice")
	srv, n := testServer(t, map[cryptoutil.Address]uint64{alice.Address(): 1000})

	// /status
	var status struct {
		Height  uint64 `json:"height"`
		Mempool int    `json:"mempool"`
	}
	if code := getJSON(t, srv.URL+"/status", &status); code != http.StatusOK {
		t.Fatalf("/status code %d", code)
	}
	if status.Height != 0 {
		t.Fatalf("fresh chain height %d", status.Height)
	}

	// /balance
	var bal struct {
		Balance uint64 `json:"balance"`
	}
	if code := getJSON(t, srv.URL+"/balance?addr="+alice.Address().Hex(), &bal); code != http.StatusOK {
		t.Fatal("balance failed")
	}
	if bal.Balance != 1000 {
		t.Fatalf("balance = %d", bal.Balance)
	}
	if code := getJSON(t, srv.URL+"/balance?addr=zz", nil); code != http.StatusBadRequest {
		t.Fatalf("bad addr code %d", code)
	}

	// /tx accepts a valid signed transfer into the mempool.
	tx, err := alice.Transfer(wallet.FromSeed("bob").Address(), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]string{"txHex": hex.EncodeToString(tx.Encode())})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/tx", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/tx code %d", resp.StatusCode)
	}
	if n.Pool().Len() != 1 {
		t.Fatalf("mempool = %d", n.Pool().Len())
	}
	// Garbage tx rejected.
	resp2, err := http.Post(srv.URL+"/tx", "application/json", bytes.NewReader([]byte(`{"txHex":"zz"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage tx code %d", resp2.StatusCode)
	}

	// /nonce and /block errors.
	var nonce struct {
		Nonce uint64 `json:"nonce"`
	}
	if code := getJSON(t, srv.URL+"/nonce?addr="+alice.Address().Hex(), &nonce); code != http.StatusOK {
		t.Fatal("nonce failed")
	}
	if code := getJSON(t, srv.URL+"/block?height=99", nil); code != http.StatusNotFound {
		t.Fatalf("missing block code %d", code)
	}
	if code := getJSON(t, srv.URL+"/block?height=0", nil); code != http.StatusOK {
		t.Fatal("genesis block fetch failed")
	}
}

// TestProofEndpoint covers GET /proof in both backend modes: without
// the disk backend it reports 501, with it the returned Merkle proof
// verifies against the head state root for present and absent accounts.
func TestProofEndpoint(t *testing.T) {
	alice := wallet.FromSeed("alice")

	// Memory backend: not implemented.
	srvMem, _ := testServer(t, map[cryptoutil.Address]uint64{alice.Address(): 1000})
	if code := getJSON(t, srvMem.URL+"/proof?addr="+alice.Address().Hex(), nil); code != http.StatusNotImplemented {
		t.Fatalf("/proof without disk backend: code %d, want 501", code)
	}

	// Disk backend: proofs served from the genesis trie.
	ns, err := nodestore.Open(t.TempDir(), nodestore.Options{Sync: nodestore.SyncNever})
	if err != nil {
		t.Fatalf("nodestore.Open: %v", err)
	}
	defer ns.Close()
	executor := contract.NewExecutor(contract.NewRegistry())
	n, err := node.New(node.Config{
		ID:  "proof-test",
		Key: cryptoutil.KeyFromSeed([]byte("proof-test")),
		Engine: pow.New(pow.Config{
			TargetInterval:    time.Second,
			InitialDifficulty: 64,
			HashRate:          64,
		}, rand.New(rand.NewSource(1))),
		ForkChoice: forkchoice.LongestChain{},
		Genesis:    node.NewGenesis("proof-test"),
		Alloc:      map[cryptoutil.Address]uint64{alice.Address(): 1000},
		Executor:   executor,
		Rewards:    incentive.Schedule{InitialReward: 50},
		Clock:      simclock.Wall{},
		DiskState:  ns,
	})
	if err != nil {
		t.Fatalf("node.New: %v", err)
	}
	reg := metrics.NewRegistry()
	tracer := obs.NewTracer(64)
	srv := httptest.NewServer(apiHandler(n, executor, reg, tracer, false))
	defer srv.Close()

	var proof struct {
		Root   string   `json:"root"`
		Exists bool     `json:"exists"`
		Leaf   string   `json:"leaf"`
		Proof  []string `json:"proof"`
	}
	if code := getJSON(t, srv.URL+"/proof?addr="+alice.Address().Hex(), &proof); code != http.StatusOK {
		t.Fatalf("/proof code %d", code)
	}
	if !proof.Exists || len(proof.Proof) == 0 {
		t.Fatalf("alice proof = %+v", proof)
	}
	root, err := cryptoutil.HashFromHex(proof.Root)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([][]byte, len(proof.Proof))
	for i, p := range proof.Proof {
		if nodes[i], err = hex.DecodeString(p); err != nil {
			t.Fatal(err)
		}
	}
	addr := alice.Address()
	leaf, exists, err := mpt.VerifyProof(root, addr[:], nodes)
	if err != nil || !exists {
		t.Fatalf("VerifyProof = exists=%v err=%v", exists, err)
	}
	if hex.EncodeToString(leaf) != proof.Leaf {
		t.Fatalf("leaf mismatch: %x vs %s", leaf, proof.Leaf)
	}

	// Absent account: exists=false, proof still verifies (of absence).
	ghost := wallet.FromSeed("ghost").Address()
	if code := getJSON(t, srv.URL+"/proof?addr="+ghost.Hex(), &proof); code != http.StatusOK {
		t.Fatalf("/proof absent code %d", code)
	}
	if proof.Exists {
		t.Fatal("ghost account reported present")
	}
	if code := getJSON(t, srv.URL+"/proof?addr=zz", nil); code != http.StatusBadRequest {
		t.Fatal("bad addr not rejected")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	alice := wallet.FromSeed("alice")
	srv, n := testServer(t, map[cryptoutil.Address]uint64{alice.Address(): 1000})

	tx, err := alice.Transfer(wallet.FromSeed("bob").Address(), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics code %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		"node_txs_submitted_total 1\n",
		"node_mempool_size 1\n",
		"node_chain_height 0\n",
		"node_block_tree_size 1\n",
		"node_blocks_proposed_total 0\n",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics Content-Type = %q, want text format version 0.0.4", ct)
	}
	// The pipeline latency histogram families registered by the node
	// must render with Prometheus histogram series even before any
	// observations.
	for _, fam := range []string{
		"node_block_verify_seconds",
		"node_block_connect_seconds",
		"node_state_apply_seconds",
		"node_state_commit_seconds",
		"node_state_rebuild_seconds",
		"node_block_propose_seconds",
		"txpool_inclusion_age_seconds",
	} {
		for _, series := range []string{
			fam + `_bucket{le="+Inf"} 0` + "\n",
			fam + "_count 0\n",
		} {
			if !strings.Contains(body, series) {
				t.Fatalf("/metrics missing histogram series %q", series)
			}
		}
	}
	// Families must render in sorted order (byte-stable scrapes).
	// Histogram series (_bucket/_sum/_count) collapse to their family.
	lines := strings.Split(strings.TrimSpace(body), "\n")
	var fams []string
	for _, ln := range lines {
		name, _, _ := strings.Cut(ln, "{")
		name, _, _ = strings.Cut(name, " ")
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if fam, ok := strings.CutSuffix(name, suffix); ok && strings.HasSuffix(fam, "_seconds") {
				name = fam
				break
			}
		}
		if len(fams) == 0 || fams[len(fams)-1] != name {
			fams = append(fams, name)
		}
	}
	if !sort.StringsAreSorted(fams) {
		t.Fatalf("/metrics families not sorted: %v", fams)
	}
}

func TestTraceAndPprofEndpoints(t *testing.T) {
	alice := wallet.FromSeed("alice")
	srv, n := testServer(t, map[cryptoutil.Address]uint64{alice.Address(): 1000})

	// Mine one block so the pipeline records spans.
	if err := n.HandleBlock(mustMine(t, n)); err == nil {
		t.Log("mined block connected")
	}

	resp, err := http.Get(srv.URL + "/trace")
	if err != nil {
		t.Fatalf("GET /trace: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/trace code %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Fatalf("/trace Content-Type = %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var span struct {
			Stage string `json:"stage"`
		}
		if err := json.Unmarshal([]byte(line), &span); err != nil {
			t.Fatalf("non-JSONL trace line %q: %v", line, err)
		}
		seen[span.Stage] = true
	}
	for _, stage := range []string{"block_verify", "state_apply", "state_commit", "block_connect"} {
		if !seen[stage] {
			t.Fatalf("trace missing stage %q (saw %v)", stage, seen)
		}
	}

	// Summary view aggregates per stage.
	var summary struct {
		Total  uint64         `json:"total"`
		Stages map[string]any `json:"stages"`
	}
	if code := getJSON(t, srv.URL+"/trace?summary=1", &summary); code != http.StatusOK {
		t.Fatalf("/trace?summary=1 code %d", code)
	}
	if _, ok := summary.Stages["block_connect"]; !ok {
		t.Fatalf("summary missing block_connect: %v", summary.Stages)
	}

	// pprof index is mounted when enabled.
	if code := getJSON(t, srv.URL+"/debug/pprof/", nil); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ code %d", code)
	}
}

// mustMine seals one block on the node's tip outside the node (the test
// drives HandleBlock directly so no timers are involved).
func mustMine(t *testing.T, n *node.Node) *types.Block {
	t.Helper()
	parent := n.Chain().HeadBlock()
	key := cryptoutil.KeyFromSeed([]byte("api-test"))
	coinbase := types.NewCoinbase(key.Address(), 50, 1)
	b := types.NewBlock(parent.Hash(), 1, time.Now().UnixNano(), key.Address(), []*types.Transaction{coinbase})
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

func TestFlagParsers(t *testing.T) {
	p := peerList{}
	if err := p.Set("beta=127.0.0.1:7002"); err != nil {
		t.Fatal(err)
	}
	if p["beta"] != "127.0.0.1:7002" {
		t.Fatalf("peerList = %v", p)
	}
	if err := p.Set("malformed"); err == nil {
		t.Fatal("malformed peer must error")
	}

	a := allocList{}
	addr := wallet.FromSeed("x").Address()
	if err := a.Set(addr.Hex() + "=500"); err != nil {
		t.Fatal(err)
	}
	if a[addr] != 500 {
		t.Fatalf("allocList = %v", a)
	}
	for _, bad := range []string{"nope", "zz=5", addr.Hex() + "=abc"} {
		if err := a.Set(bad); err == nil {
			t.Fatalf("alloc %q must error", bad)
		}
	}
}

// TestReadHandlersAnswer503WithoutHeadState: /balance, /nonce and
// /query get their state through headStateOr503, which answers 503 with
// the node's reason — not a nil dereference — when the head state
// cannot be produced.
func TestReadHandlersAnswer503WithoutHeadState(t *testing.T) {
	rec := httptest.NewRecorder()
	st, ok := headStateOr503(rec, func() (*state.State, error) {
		return nil, errors.New("node: replay deadbeef: state root mismatch")
	})
	if ok || st != nil {
		t.Fatalf("headStateOr503 = %v, %v on a failing head", st, ok)
	}
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "state root mismatch") {
		t.Fatalf("answer %d %q, want 503 with the reason", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	if st, ok := headStateOr503(rec, func() (*state.State, error) { return state.New(), nil }); !ok || st == nil || rec.Body.Len() != 0 {
		t.Fatal("headStateOr503 refused a head state, or wrote before the handler")
	}
}

// TestReadHandlersAnswer503OnStateReadError: when the state store cannot
// produce a node, /balance, /nonce, /query and /proof answer 503 with the
// reason — never 200 with the zero balance of an account that looks
// absent — and the failures are counted.
func TestReadHandlersAnswer503OnStateReadError(t *testing.T) {
	ns, err := nodestore.Open(t.TempDir(), nodestore.Options{Sync: nodestore.SyncNever, CacheBytes: -1})
	if err != nil {
		t.Fatalf("nodestore.Open: %v", err)
	}
	alice := wallet.FromSeed("alice").Address()
	executor := contract.NewExecutor(contract.NewRegistry())
	n, err := node.New(node.Config{
		ID:         "read-error-test",
		Key:        cryptoutil.KeyFromSeed([]byte("read-error-test")),
		Engine:     pow.New(pow.Config{TargetInterval: time.Second, InitialDifficulty: 64, HashRate: 64}, rand.New(rand.NewSource(1))),
		ForkChoice: forkchoice.LongestChain{},
		Genesis:    node.NewGenesis("read-error-test"),
		Alloc:      map[cryptoutil.Address]uint64{alice: 1000, wallet.FromSeed("bob").Address(): 5},
		Executor:   executor,
		Rewards:    incentive.Schedule{InitialReward: 50},
		Clock:      simclock.Wall{},
		DiskState:  ns,
	})
	if err != nil {
		t.Fatalf("node.New: %v", err)
	}
	reg := metrics.NewRegistry()
	n.RegisterMetrics(reg)
	srv := httptest.NewServer(apiHandler(n, executor, reg, nil, false))
	defer srv.Close()

	var bal struct {
		Balance uint64 `json:"balance"`
	}
	if code := getJSON(t, srv.URL+"/balance?addr="+alice.Hex(), &bal); code != http.StatusOK || bal.Balance != 1000 {
		t.Fatalf("/balance with a healthy store: %d, %d", code, bal.Balance)
	}
	ns.Close() // every read of the store fails from here on
	for _, path := range []string{
		"/balance?addr=" + alice.Hex(),
		"/nonce?addr=" + alice.Hex(),
		"/query?contract=" + alice.Hex() + "&fn=owner&arg=x",
		"/proof?addr=" + alice.Hex(),
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("GET %s: %d %q, want 503", path, resp.StatusCode, body)
		}
	}
	if got := n.Metrics().StateReadErrors; got < 3 {
		t.Fatalf("StateReadErrors = %d after three failed reads", got)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if body, _ := io.ReadAll(resp.Body); !strings.Contains(string(body), "node_state_read_errors_total") {
		t.Fatal("/metrics lacks node_state_read_errors_total")
	}
}

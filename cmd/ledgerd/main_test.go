package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
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
	"dcsledger/internal/seglog"
	"dcsledger/internal/simclock"
	"dcsledger/internal/state"
	"dcsledger/internal/types"
	"dcsledger/internal/wal"
	"dcsledger/internal/wallet"
)

// tempWAL opens a durable store in a directory of the test's own.
func tempWAL(t *testing.T) *wal.DurableStore {
	t.Helper()
	ds, _, err := wal.OpenStore(t.TempDir(), wal.StoreOptions{Fsync: seglog.SyncNever})
	if err != nil {
		t.Fatalf("wal.OpenStore: %v", err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds
}

func testServer(t *testing.T, alloc map[cryptoutil.Address]uint64) (*httptest.Server, *node.Node) {
	t.Helper()
	return testServerOn(t, alloc, nil)
}

// testServerOn is testServer over the disk state backend when ns is set,
// with the WAL that backend requires.
func testServerOn(t *testing.T, alloc map[cryptoutil.Address]uint64, ns *nodestore.Store) (*httptest.Server, *node.Node) {
	t.Helper()
	var ds *wal.DurableStore
	if ns != nil {
		ds = tempWAL(t)
	}
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
		Durable:    ds,
		DiskState:  ns,
	})
	if err != nil {
		t.Fatalf("node.New: %v", err)
	}
	reg := metrics.NewRegistry()
	n.RegisterMetrics(reg)
	tracer := obs.NewTracer(64)
	n.SetTracer(tracer)
	// The daemon's own server, on the test's listener.
	srv := httptest.NewUnstartedServer(nil)
	srv.Config = newHTTPServer("", apiHandler(n, executor, reg, tracer, true))
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, n
}

// TestHTTPServerTimeouts: the daemon's server bounds how long a client
// may take to send a request's headers, and sets no read, write or idle
// timeout, which would close kept-alive connections under POST /tx; and
// /status answers twice over one connection.
func TestHTTPServerTimeouts(t *testing.T) {
	srv, _ := testServer(t, nil)
	if c := srv.Config; c.ReadHeaderTimeout != readHeaderTimeout || c.ReadTimeout != 0 || c.WriteTimeout != 0 || c.IdleTimeout != 0 {
		t.Fatalf("timeouts: header %v, read %v, write %v, idle %v; want %v and none", c.ReadHeaderTimeout, c.ReadTimeout, c.WriteTimeout, c.IdleTimeout, readHeaderTimeout)
	}
	var reused []bool
	trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) { reused = append(reused, info.Reused) }}
	for range 2 {
		req, err := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), trace), http.MethodGet, srv.URL+"/status", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatalf("GET /status: %v", err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /status: %d, %v", resp.StatusCode, err)
		}
	}
	if len(reused) != 2 || !reused[1] {
		t.Fatalf("connections reused: %v; want the second request on the first's connection", reused)
	}
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

	// /status: the head and the mempool; the counters are /metrics'.
	var keys map[string]json.RawMessage
	if code := getJSON(t, srv.URL+"/status", &keys); code != http.StatusOK {
		t.Fatalf("/status code %d", code)
	}
	got := make([]string, 0, len(keys))
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := "address,blocks,head,height,mempool"; strings.Join(got, ",") != want {
		t.Fatalf("/status keys %v, want %s", got, want)
	}
	var status struct {
		Height  uint64 `json:"height"`
		Head    string `json:"head"`
		Mempool int    `json:"mempool"`
	}
	if code := getJSON(t, srv.URL+"/status", &status); code != http.StatusOK {
		t.Fatalf("/status code %d", code)
	}
	if status.Height != 0 {
		t.Fatalf("fresh chain height %d", status.Height)
	}
	// height and head name the same block, whatever connects meanwhile:
	// polled while the chain grows, every answer's head is the main-chain
	// block at that answer's height.
	consistent := func() {
		resp, err := http.Get(srv.URL + "/status")
		if err != nil {
			t.Errorf("GET /status: %v", err)
			return
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
			t.Errorf("decode /status: %v", err)
		} else if at, ok := n.Chain().AtHeight(status.Height); !ok || at.Hex() != status.Head {
			t.Errorf("/status height %d with head %s; the chain has %s there", status.Height, status.Head, at.Short())
		}
	}
	grown, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-grown:
				return
			default:
				consistent()
			}
		}
	}()
	for i := 0; i < 8; i++ {
		if err := n.HandleBlock(mineNext(t, n)); err != nil {
			t.Fatalf("HandleBlock: %v", err)
		}
	}
	close(grown)
	<-polled
	consistent()
	if status.Height != 8 {
		t.Fatalf("height %d after 8 blocks", status.Height)
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

// TestProofEndpoint covers GET /proof on both backends: the returned
// Merkle proof verifies against the head header's state root, for present
// and absent accounts, from the head state's own trie either way.
func TestProofEndpoint(t *testing.T) {
	alice := wallet.FromSeed("alice")
	for _, backend := range []string{"memory", "disk"} {
		t.Run(backend, func(t *testing.T) {
			var ns *nodestore.Store
			if backend == "disk" {
				var err error
				if ns, err = nodestore.Open(t.TempDir(), nodestore.Options{Sync: nodestore.SyncNever}); err != nil {
					t.Fatalf("nodestore.Open: %v", err)
				}
				defer ns.Close()
			}
			srv, n := testServerOn(t, map[cryptoutil.Address]uint64{alice.Address(): 1000}, ns)
			if err := n.HandleBlock(mineNext(t, n)); err != nil {
				t.Fatalf("HandleBlock: %v", err)
			}
			headRoot := n.Chain().HeadBlock().Header.StateRoot

			var proof struct {
				Root   string   `json:"root"`
				Exists bool     `json:"exists"`
				Leaf   string   `json:"leaf"`
				Proof  []string `json:"proof"`
			}
			// Present, then absent (exists=false, a proof of absence).
			for _, c := range []struct {
				addr   cryptoutil.Address
				exists bool
			}{{alice.Address(), true}, {wallet.FromSeed("ghost").Address(), false}} {
				if code := getJSON(t, srv.URL+"/proof?addr="+c.addr.Hex(), &proof); code != http.StatusOK {
					t.Fatalf("/proof code %d", code)
				}
				if proof.Exists != c.exists || len(proof.Proof) == 0 || proof.Root != headRoot.Hex() {
					t.Fatalf("proof = %+v, want exists=%v under the head's root %s", proof, c.exists, headRoot.Hex())
				}
				nodes := make([][]byte, len(proof.Proof))
				for i, p := range proof.Proof {
					var err error
					if nodes[i], err = hex.DecodeString(p); err != nil {
						t.Fatal(err)
					}
				}
				leaf, exists, err := mpt.VerifyProof(headRoot, c.addr[:], nodes)
				if err != nil || exists != c.exists {
					t.Fatalf("VerifyProof = exists=%v err=%v, want exists=%v", exists, err, c.exists)
				}
				if hex.EncodeToString(leaf) != proof.Leaf {
					t.Fatalf("leaf mismatch: %x vs %s", leaf, proof.Leaf)
				}
			}
			if code := getJSON(t, srv.URL+"/proof?addr=zz", nil); code != http.StatusBadRequest {
				t.Fatal("bad addr not rejected")
			}
		})
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

	// The daemon's own wiring (run: flags, stores, transport, gossip, fork
	// choice, node) exports, on either backend, exactly the series recorded
	// from PR 17's ledgerd (and, on disk, node_disk_sweep_seconds since):
	// same names in the same order, same bucket bounds, each rendered as
	// `name value`.
	for _, backend := range []string{"memory", "disk"} {
		want, err := os.ReadFile("testdata/metrics_" + backend + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		got := daemonSeries(t, "-state-backend", backend, "-data-dir", t.TempDir())
		if got != string(want) {
			t.Errorf("-state-backend=%s: /metrics series differ from testdata/metrics_%s.golden:\n%s", backend, backend, got)
		}
		// What benchmark/report.go scrapes. (exec_* are exported only with
		// node.Config.ExecWorkers > 0, which ledgerd never set by default
		// and cannot set now: internal/node's exec equivalence test pins them.)
		scraped := []string{
			"node_blocks_accepted_total", "node_block_propose_seconds_sum", "node_block_connect_seconds_sum",
			"node_block_verify_seconds_sum", "node_state_apply_seconds_sum", "wal_append_seconds_sum",
			"wal_fsyncs_total", "wal_bytes_written_total", "p2p_sent_total", "p2p_dropped_total",
			"gossip_duplicate_total", "gossip_delivered_total", "node_reorgs_total",
			"node_blocks_rejected_total", "node_wal_append_errors_total",
		}
		if backend == "disk" {
			scraped = append(scraped, "nodestore_appends_total", "nodestore_cache_hits_total", "nodestore_cache_misses_total")
		}
		for _, name := range scraped {
			if !strings.Contains("\n"+got, "\n"+name+"\n") {
				t.Errorf("-state-backend=%s: /metrics lacks %s, which the benchmark scrapes", backend, name)
			}
		}
	}
}

// daemonSeries runs the daemon itself — run, with the given flags added
// to loopback addresses and -mine=false — scrapes GET /metrics once it
// answers, stops it, and returns the series of the scrape in order, one a
// line, values stripped.
func daemonSeries(t *testing.T, args ...string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpAddr := ln.Addr().String()
	ln.Close()
	rate := runtime.MemProfileRate
	stop, done := make(chan os.Signal, 1), make(chan error, 1)
	go func() {
		done <- run(append([]string{"-listen", "127.0.0.1:0", "-http", httpAddr, "-mine=false"}, args...), stop)
	}()
	var body []byte
	for deadline := time.Now().Add(10 * time.Second); body == nil; time.Sleep(10 * time.Millisecond) {
		select {
		case err := <-done:
			t.Fatalf("run returned before it was stopped: %v", err)
		default:
		}
		resp, err := http.Get("http://" + httpAddr + "/metrics")
		if err != nil {
			if time.Now().After(deadline) {
				t.Fatalf("daemon never answered: %v", err)
			}
			continue
		}
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	stop <- os.Interrupt
	if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		t.Errorf("run: %v", err)
	}
	if runtime.MemProfileRate != rate {
		t.Errorf("run left MemProfileRate at %d, it was %d", runtime.MemProfileRate, rate)
	}
	var series strings.Builder
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(value, " ") {
			t.Errorf("series %q is not rendered as `name value`", line)
		}
		series.WriteString(name + "\n")
	}
	return series.String()
}

// TestPostTxBodyLimit: POST /tx reads at most maxTxBody bytes — a body
// past it is 413 and the pool does not change — while a transfer is
// still admitted.
func TestPostTxBodyLimit(t *testing.T) {
	alice := wallet.FromSeed("alice")
	srv, n := testServer(t, map[cryptoutil.Address]uint64{alice.Address(): 1000})
	post := func(body io.Reader) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/tx", "application/json", body)
		if err != nil {
			t.Fatalf("POST /tx: %v", err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// The hex digits come from a reader, not from memory: only the server
	// holds what it reads, and only up to the limit.
	digits := io.LimitReader(zeros{}, maxTxBody)
	huge := io.MultiReader(strings.NewReader(`{"txHex":"`), digits, strings.NewReader(`"}`))
	if code := post(huge); code != http.StatusRequestEntityTooLarge || n.Pool().Len() != 0 {
		t.Fatalf("a %d-byte body: code %d, mempool %d; want 413 and nothing admitted", maxTxBody+12, code, n.Pool().Len())
	}
	tx, err := alice.Transfer(wallet.FromSeed("bob").Address(), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]string{"txHex": hex.EncodeToString(tx.Encode())})
	if err != nil {
		t.Fatal(err)
	}
	if code := post(bytes.NewReader(body)); code != http.StatusOK || n.Pool().Len() != 1 {
		t.Fatalf("a transfer: code %d, mempool %d; want 200 and it admitted", code, n.Pool().Len())
	}
}

// zeros reads as an endless run of the hex digit '0'.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '0'
	}
	return len(p), nil
}

// TestSampleHeap: heap sampling is off without -pprof, untouched with
// it, and put back as it was either way.
func TestSampleHeap(t *testing.T) {
	before := runtime.MemProfileRate
	restore := sampleHeap(false)
	if runtime.MemProfileRate != 0 {
		t.Fatalf("without -pprof MemProfileRate = %d, want 0", runtime.MemProfileRate)
	}
	restore()
	restore = sampleHeap(true)
	if runtime.MemProfileRate != before {
		t.Fatalf("with -pprof MemProfileRate = %d, want %d", runtime.MemProfileRate, before)
	}
	restore()
	if runtime.MemProfileRate != before {
		t.Fatalf("restored MemProfileRate = %d, want %d", runtime.MemProfileRate, before)
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

// TestFlagSet pins what `ledgerd -h` prints — every flag, its default and
// its help text — the way the /metrics series are pinned: the next knob is
// a visible diff of testdata/flags.golden. The usage is the daemon's own,
// printed by run in a child process (a FlagSet that exits on -h).
func TestFlagSet(t *testing.T) {
	const child = "print-usage"
	if flag.Arg(0) == child {
		_ = run([]string{"-h"}, nil) // prints the usage and exits 0
		t.Fatal("run -h returned")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestFlagSet$", child)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("ledgerd -h: %v\n%s", err, stderr.String())
	}
	_, got, _ := strings.Cut(stderr.String(), "\n") // after "Usage of <binary>:"
	want, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("ledgerd -h differs from testdata/flags.golden:\n%s", got)
	}
	if n := strings.Count("\n"+got, "\n  -"); n != 16 {
		t.Errorf("ledgerd -h lists %d flags, want 16", n)
	}
}

// TestIntervalMustBePositive: a target block interval of zero would make
// the miner's hash rate infinite and a negative one meaningless; run
// refuses both, naming the flag, before it opens anything.
func TestIntervalMustBePositive(t *testing.T) {
	for _, v := range []string{"0", "-1s"} {
		dir := filepath.Join(t.TempDir(), "data")
		err := run([]string{"-interval", v, "-data-dir", dir, "-listen", "127.0.0.1:0", "-http", "127.0.0.1:0"}, nil)
		if err == nil || !strings.Contains(err.Error(), "-interval") {
			t.Fatalf("-interval %s: %v; want an error naming -interval", v, err)
		}
		if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("-interval %s: the data directory was created (%v)", v, err)
		}
	}
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
		Durable:    tempWAL(t),
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

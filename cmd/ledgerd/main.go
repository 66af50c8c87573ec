// Command ledgerd runs a real (wall-clock, TCP) ledger peer: a PoW
// miner with gossip over persistent TCP connections and an HTTP API for
// clients (see cmd/ledgercli).
//
// A two-node local network:
//
//	ledgerd -id alpha -listen :7001 -http :8001 -peer beta=127.0.0.1:7002 \
//	        -alloc <addrhex>=100000 -interval 5s
//	ledgerd -id beta  -listen :7002 -http :8002 -peer alpha=127.0.0.1:7001 \
//	        -alloc <addrhex>=100000 -interval 5s
package main

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dcsledger/internal/consensus/forkchoice"
	"dcsledger/internal/consensus/pow"
	"dcsledger/internal/contract"
	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/incentive"
	"dcsledger/internal/metrics"
	"dcsledger/internal/node"
	"dcsledger/internal/nodestore"
	"dcsledger/internal/obs"
	"dcsledger/internal/p2p"
	"dcsledger/internal/seglog"
	"dcsledger/internal/simclock"
	"dcsledger/internal/state"
	"dcsledger/internal/store"
	"dcsledger/internal/types"
	"dcsledger/internal/wal"
)

type peerList map[string]string

func (p peerList) String() string { return fmt.Sprint(map[string]string(p)) }

func (p peerList) Set(v string) error {
	id, addr, ok := strings.Cut(v, "=")
	if !ok {
		return errors.New("peer must be id=host:port")
	}
	p[id] = addr
	return nil
}

// fsyncFlag is the -fsync flag, parsed once: the WAL and the disk state
// store run under the same policy.
type fsyncFlag struct{ policy seglog.SyncPolicy }

func (f *fsyncFlag) String() string { return f.policy.String() }

func (f *fsyncFlag) Set(v string) (err error) {
	f.policy, err = seglog.ParseSyncPolicy(v)
	return err
}

type allocList map[cryptoutil.Address]uint64

func (a allocList) String() string { return fmt.Sprintf("%d accounts", len(a)) }

func (a allocList) Set(v string) error {
	addrHex, amountStr, ok := strings.Cut(v, "=")
	if !ok {
		return errors.New("alloc must be addrhex=amount")
	}
	addr, err := cryptoutil.AddressFromHex(addrHex)
	if err != nil {
		return err
	}
	amount, err := strconv.ParseUint(amountStr, 10, 64)
	if err != nil {
		return err
	}
	a[addr] = amount
	return nil
}

// sampleHeap turns the runtime's heap allocation sampling off unless on:
// only a heap profile reads the samples, and only -pprof serves one. Off,
// a process saves the sampling and the profile's bucket table. It returns
// what puts the rate back.
func sampleHeap(on bool) (restore func()) {
	rate := runtime.MemProfileRate
	if !on {
		runtime.MemProfileRate = 0
	}
	return func() { runtime.MemProfileRate = rate }
}

// readHeaderTimeout is how long the HTTP server waits for a request's
// headers: a client that opens a connection and trickles header bytes
// holds a goroutine and a descriptor no longer than this.
const readHeaderTimeout = 10 * time.Second

// newHTTPServer returns the daemon's HTTP server on addr. It bounds the
// time to read a request's headers and nothing else: a read, write or
// idle timeout would close keep-alive connections under clients that
// POST /tx on them, and Go's transport does not retry a POST whose
// connection the server closed, so those submits would fail.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], stop); err != nil {
		log.Fatal("ledgerd: ", err)
	}
}

// run is the daemon: it parses args, wires the peer and serves until a
// signal arrives on stop or the HTTP server fails.
func run(args []string, stop <-chan os.Signal) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	var (
		id       = fs.String("id", "node-0", "node identity")
		listen   = fs.String("listen", ":7001", "p2p listen address")
		httpAddr = fs.String("http", ":8001", "http api listen address")
		mine     = fs.Bool("mine", true, "produce blocks")
		interval = fs.Duration("interval", 10*time.Second, "target block interval")
		network  = fs.String("network", "dcsledger-devnet", "network name (genesis tag)")
		retain   = fs.Int("state-retention", node.DefaultStateRetention,
			"blocks below the head that keep their post-state (-1 = archive, keep all)")
		pprofOn = fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the http api")
		dataDir = fs.String("data-dir", "", "persist the ledger (WAL + checkpoints) in this directory; empty = memory only")
		ckptN   = fs.Uint64("checkpoint-every", wal.DefaultCheckpointEvery, "blocks between durable state checkpoints")
		backend = fs.String("state-backend", "memory",
			"authenticated state backend: memory|disk (disk keeps the state — account trie, contract storage, code — in <data-dir>/state and reads it from there: written at -checkpoint-every cadence, checkpoints carry its root and no snapshot, RAM bounded by -state-cache and the store's index)")
		cacheB  = fs.Int64("state-cache", nodestore.DefaultCacheBytes, "decoded-node cache budget in bytes for -state-backend=disk")
		traceFn = fs.String("trace-file", "", "append pipeline trace spans to this JSONL file")
		peers   = peerList{}
		alloc   = allocList{}
		fsync   = fsyncFlag{seglog.SyncInterval}
	)
	fs.Var(&fsync, "fsync", "wal fsync policy: always|interval|never")
	fs.Var(peers, "peer", "peer as id=host:port (repeatable)")
	fs.Var(alloc, "alloc", "genesis allocation addrhex=amount (repeatable)")
	_ = fs.Parse(args) // ExitOnError: a bad flag has already exited with 2
	if *interval <= 0 {
		return fmt.Errorf("-interval %s: the target block interval must be above zero", *interval)
	}
	defer sampleHeap(*pprofOn)()

	key := cryptoutil.KeyFromSeed([]byte("ledgerd/" + *id))
	log.Printf("node %s, address %s", *id, key.Address())

	// Pipeline observability: a bounded span ring served at GET /trace,
	// optionally streamed to a JSONL file, plus per-stage latency
	// histograms registered under GET /metrics.
	reg := metrics.NewRegistry()
	tracer := obs.NewTracer(obs.DefaultRingCapacity)
	tracer.SetRun(*id)
	if *traceFn != "" {
		f, err := os.OpenFile(*traceFn, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("trace-file: %w", err)
		}
		defer f.Close()
		tracer.SetSink(f)
		log.Printf("tracing pipeline spans to %s", *traceFn)
	}
	engine := pow.New(pow.Config{
		TargetInterval:    *interval,
		InitialDifficulty: 4096,
		HashRate:          4096 / interval.Seconds(),
	}, rand.New(rand.NewSource(time.Now().UnixNano())))
	// The heap beside the gauges of what fills it: live is what the last
	// collection found reachable, inuse the spans holding objects, garbage
	// included. One runtime/metrics read per scrape, which stops nothing.
	reg.Collect(func(emit func(string, int64)) {
		heap := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
		rtmetrics.Read(heap)
		emit("process_heap_live_bytes", int64(heap[0].Value.Uint64()))
		emit("process_heap_inuse_bytes", int64(heap[1].Value.Uint64()+heap[2].Value.Uint64()))
	})

	// Durable ledger: a segmented WAL plus periodic state checkpoints
	// under -data-dir. Opening the store replays the journal so a node
	// killed mid-run restarts at its exact pre-crash head.
	var (
		ds  *wal.DurableStore
		rec *wal.Recovery
	)
	if *dataDir != "" {
		var err error
		ds, rec, err = openDurable(*dataDir, fsync.policy, *ckptN)
		if err != nil {
			return err
		}
		defer ds.Close()
		log.Printf("durable store at %s (fsync=%s, checkpoint-every=%d): %d block(s) journaled, tip height %d",
			*dataDir, fsync.policy, *ckptN, rec.Blocks, rec.TipHeight())
		logOpenCut(log.Printf, "the journal", ds.Stats().WAL.TornTruncated)
	}

	// Disk-backed authenticated state: the state lives in a node store
	// under <data-dir>/state (flushed when the WAL checkpoints) and is read
	// from there, bounded-RAM via the decoded-node cache.
	var ns *nodestore.Store
	switch *backend {
	case "memory":
	case "disk":
		if *dataDir == "" {
			return errors.New("-state-backend=disk requires -data-dir")
		}
		var err error
		ns, err = nodestore.Open(filepath.Join(*dataDir, "state"), nodestore.Options{
			Sync:       fsync.policy,
			CacheBytes: *cacheB,
		})
		if err != nil {
			return fmt.Errorf("open state store: %w", err)
		}
		defer ns.Close()
		log.Printf("disk state backend at %s (cache %d MiB)", ns.Dir(), *cacheB>>20)
		logOpenCut(log.Printf, "the state store", ns.Stats().TornBytes)
	default:
		return fmt.Errorf("unknown -state-backend %q (want memory|disk)", *backend)
	}

	executor := contract.NewExecutor(contract.NewRegistry())
	n, err := node.New(node.Config{
		ID:             p2p.NodeID(*id),
		Key:            key,
		Engine:         engine,
		ForkChoice:     forkchoice.LongestChain{},
		Genesis:        node.NewGenesis(*network),
		Alloc:          alloc,
		Executor:       executor,
		Rewards:        incentive.Schedule{InitialReward: 50, HalvingInterval: 210_000},
		Clock:          simclock.Wall{},
		Mine:           *mine,
		StateRetention: *retain,
		Durable:        ds,
		DiskState:      ns,
	})
	if err != nil {
		return err
	}
	n.SetTracer(tracer)
	if rec != nil {
		for _, sk := range rec.SkippedCheckpoints {
			log.Printf("skipped checkpoint %s: %v", sk.File, sk.Reason)
		}
		if err := n.Recover(rec); err != nil {
			return fmt.Errorf("recover from %s: %w", *dataDir, err)
		}
		log.Printf("recovered chain: height %d, head %s", n.Chain().Height(), n.Chain().Head().Hex())
		logShortRecovery(log.Printf, n, rec, *network, *interval)
	}

	tr, err := p2p.NewTCPTransportConfig(p2p.NodeID(*id), *listen, n.Mux().Dispatch, p2p.TCPConfig{Tracer: tracer})
	if err != nil {
		return err
	}
	defer tr.Close()
	var neighbors []p2p.NodeID
	for pid, addr := range peers {
		tr.AddPeer(p2p.NodeID(pid), addr)
		neighbors = append(neighbors, p2p.NodeID(pid))
	}
	g := p2p.NewGossiper(tr, neighbors, len(neighbors),
		rand.New(rand.NewSource(time.Now().UnixNano()+2)))
	tr.RegisterMetrics(reg)
	g.RegisterMetrics(reg)
	n.RegisterMetrics(reg)
	n.Attach(tr, g)
	n.Start()
	defer n.Stop()
	log.Printf("p2p on %s, %d peers; http on %s; mining=%v interval=%s",
		tr.Addr(), len(neighbors), *httpAddr, *mine, *interval)

	srv := newHTTPServer(*httpAddr, apiHandler(n, executor, reg, tracer, *pprofOn))
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	select {
	case s := <-stop:
		log.Printf("signal %v: shutting down", s)
		return srv.Close()
	case err := <-errCh:
		return err
	}
}

// logShortRecovery logs, through logf, one line when n's recovery from
// rec refused journaled blocks or re-rooted at a checkpoint, naming the
// -network and -interval in force. A journaled block fails its checks
// under another -network or -alloc (another genesis) or another -interval
// (PoW's retarget target, which its seal was mined against); the line
// names no one of them as the cause, since the journal records none.
func logShortRecovery(logf func(string, ...any), n *node.Node, rec *wal.Recovery, network string, interval time.Duration) {
	if m := n.Metrics(); m.BlocksRejected > 0 || m.RecoveryReroots > 0 {
		logf("recovery did not take the whole journal: journal tip height %d, recovered height %d, %d block(s) rejected, %d re-root(s) at a checkpoint, under -network %s -interval %s (a block journaled under another -network, -alloc or -interval fails its checks)",
			rec.TipHeight(), n.Chain().Height(), m.BlocksRejected, m.RecoveryReroots, network, interval)
	}
}

// logOpenCut logs, through logf, one line when opening store cut bytes
// off its log: a torn tail, or a record recovery cannot use and the rest.
func logOpenCut(logf func(string, ...any), store string, bytes uint64) {
	if bytes > 0 {
		logf("opening %s cut %d byte(s) off its log: a torn tail, or a record recovery cannot use, and everything behind it", store, bytes)
	}
}

// openDurable opens (or creates) the WAL-backed block store under dir.
// The returned Recovery holds everything journaled by a previous run of
// the same directory; feed it to node.Recover before starting the node.
func openDurable(dir string, pol seglog.SyncPolicy, ckptEvery uint64) (*wal.DurableStore, *wal.Recovery, error) {
	ds, rec, err := wal.OpenStore(dir, wal.StoreOptions{
		Fsync:           pol,
		CheckpointEvery: ckptEvery,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("open durable store %s: %w", dir, err)
	}
	return ds, rec, nil
}

// apiHandler exposes the node over HTTP for ledgercli, plus the
// operator-facing GET /metrics (Prometheus text format) and GET /trace
// (pipeline span JSONL; ?summary=1 for per-stage stats) endpoints.
// With pprofOn the standard net/http/pprof handlers are mounted under
// /debug/pprof/ for CPU/heap/goroutine profiling of a live peer.
func apiHandler(n *node.Node, executor *contract.Executor, reg *metrics.Registry, tracer *obs.Tracer, pprofOn bool) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", metrics.Handler(reg))
	mux.Handle("GET /trace", obs.Handler(tracer))
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(v)
	}
	fail := func(w http.ResponseWriter, code int, err error) {
		http.Error(w, err.Error(), code)
	}

	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		// Height and hash from one read of the head: a poller must never
		// see height h beside the hash of h+1.
		head := n.Chain().HeadBlock()
		writeJSON(w, map[string]any{
			"address": n.Address().Hex(),
			"height":  head.Header.Height,
			"head":    head.Hash().Hex(),
			"mempool": n.Pool().Len(),
			"blocks":  n.Tree().Len(), // headers known; bodies may be in the WAL only
		})
	})
	mux.HandleFunc("GET /balance", func(w http.ResponseWriter, r *http.Request) {
		addr, err := cryptoutil.AddressFromHex(r.URL.Query().Get("addr"))
		if err != nil {
			fail(w, http.StatusBadRequest, err)
			return
		}
		st, ok := headStateOr503(w, n.HeadState)
		if !ok {
			return
		}
		if bal := st.Balance(addr); readOr503(w, st) {
			writeJSON(w, map[string]any{"addr": addr.Hex(), "balance": bal})
		}
	})
	mux.HandleFunc("GET /nonce", func(w http.ResponseWriter, r *http.Request) {
		addr, err := cryptoutil.AddressFromHex(r.URL.Query().Get("addr"))
		if err != nil {
			fail(w, http.StatusBadRequest, err)
			return
		}
		st, ok := headStateOr503(w, n.HeadState)
		if !ok {
			return
		}
		if nonce := st.Nonce(addr); readOr503(w, st) {
			writeJSON(w, map[string]any{"addr": addr.Hex(), "nonce": nonce})
		}
	})
	mux.HandleFunc("GET /block", func(w http.ResponseWriter, r *http.Request) {
		height, err := strconv.ParseUint(r.URL.Query().Get("height"), 10, 64)
		if err != nil {
			fail(w, http.StatusBadRequest, err)
			return
		}
		h, ok := n.Chain().AtHeight(height)
		if !ok {
			fail(w, http.StatusNotFound, fmt.Errorf("no block at height %d", height))
			return
		}
		// Old bodies are read back from the journal; one that cannot be
		// is the node's failure, not a missing block.
		b, err := n.Tree().Block(h)
		if err != nil {
			code := http.StatusServiceUnavailable
			if errors.Is(err, store.ErrUnknownBlock) {
				code = http.StatusNotFound
			}
			fail(w, code, err)
			return
		}
		writeJSON(w, b)
	})
	mux.HandleFunc("POST /tx", func(w http.ResponseWriter, r *http.Request) {
		raw, err := hexBody(w, r)
		if err != nil {
			code := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				code = http.StatusRequestEntityTooLarge
			}
			fail(w, code, err)
			return
		}
		tx, err := types.DecodeTransaction(raw)
		if err != nil {
			fail(w, http.StatusBadRequest, err)
			return
		}
		if err := n.SubmitTx(tx); err != nil {
			fail(w, http.StatusUnprocessableEntity, err)
			return
		}
		writeJSON(w, map[string]any{"txId": tx.ID().Hex()})
	})
	mux.HandleFunc("GET /proof", func(w http.ResponseWriter, r *http.Request) {
		// Merkle proof of one account against the head state root, from
		// the head state's trie (either backend).
		addr, err := cryptoutil.AddressFromHex(r.URL.Query().Get("addr"))
		if err != nil {
			fail(w, http.StatusBadRequest, err)
			return
		}
		p, err := n.AccountProof(addr)
		if err != nil {
			fail(w, http.StatusServiceUnavailable, err)
			return
		}
		proofHex := make([]string, len(p.Proof))
		for i, nd := range p.Proof {
			proofHex[i] = hex.EncodeToString(nd)
		}
		writeJSON(w, map[string]any{
			"addr":   p.Addr.Hex(),
			"root":   p.Root.Hex(),
			"exists": p.Leaf != nil,
			"leaf":   hex.EncodeToString(p.Leaf),
			"proof":  proofHex,
		})
	})
	mux.HandleFunc("GET /query", func(w http.ResponseWriter, r *http.Request) {
		// Constant (free) native-contract query: /query?contract=&fn=&arg=...
		addr, err := cryptoutil.AddressFromHex(r.URL.Query().Get("contract"))
		if err != nil {
			fail(w, http.StatusBadRequest, err)
			return
		}
		st, ok := headStateOr503(w, n.HeadState)
		if !ok {
			return
		}
		out, err := executor.Query(st, addr, cryptoutil.ZeroAddress,
			r.URL.Query().Get("fn"), r.URL.Query()["arg"]...)
		if !readOr503(w, st) {
			return
		}
		if err != nil {
			code := http.StatusUnprocessableEntity
			if errors.Is(err, state.ErrRead) {
				code = http.StatusServiceUnavailable
			}
			fail(w, code, err)
			return
		}
		writeJSON(w, map[string]any{"result": string(out)})
	})
	return mux
}

// headStateOr503 returns a private view of the head state for a read
// handler, or answers 503 with the node's reason when the head state
// cannot be produced, so a read never dereferences a state the node does
// not have. The handler reads, then asks readOr503 whether every read
// was answered.
func headStateOr503(w http.ResponseWriter, head func() (*state.State, error)) (*state.State, bool) {
	st, err := head()
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return nil, false
	}
	return st.Copy(), true
}

// readOr503 answers 503 if a read through view (from headStateOr503)
// failed under it — the state store's fault, which must not be served as
// an absent account — and reports whether the handler may answer.
func readOr503(w http.ResponseWriter, view *state.State) bool {
	if err := view.Err(); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return false
	}
	return true
}

// maxTxBody is the largest POST /tx body read: a transaction as large as
// a gossip frame can carry, hex-encoded, and room for the JSON around it.
const maxTxBody = 2*p2p.DefaultMaxFrame + 1<<10

// hexBody reads a POST /tx body, {"txHex": ...}, of at most maxTxBody
// bytes: past that the error is an *http.MaxBytesError.
func hexBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	var body struct {
		TxHex string `json:"txHex"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxTxBody)).Decode(&body); err != nil {
		return nil, err
	}
	return hex.DecodeString(body.TxHex)
}

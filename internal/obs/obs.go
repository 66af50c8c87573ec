// Package obs is the pipeline-observability subsystem: a lightweight
// event tracer that records per-block / per-transaction span records
// (stage, start, duration, peer, height) into a bounded in-memory ring,
// with an optional JSONL sink for machine-readable traces.
//
// The paper argues the DCS trade-offs with aggregate numbers (Bitcoin's
// ~7 tx/s vs an ordering service's >10K tx/s, §2.7); seeing *why*
// requires a per-stage latency breakdown of a block's life — gossip
// receipt → verify → connect → state apply → fork choice. Every hot-path
// component (p2p transport, node, consensus engines, ordering service,
// PBFT) observes its stages through one call, Observer.Observe, which
// feeds the stage's latency histogram and the tracer from the same
// measurement; a nil *Tracer is a no-op. cmd/ledgerd serves the ring at
// GET /trace, and cmd/dcsbench -stages turns traces into the paper's
// DC-vs-CS latency comparison.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Canonical pipeline stage names. Components record these so traces
// from different subsystems compose into one per-block timeline.
const (
	// StageP2PFlush is the enqueue→flush wait of one message on a TCP
	// peer queue (recorded by p2p.TCPTransport).
	StageP2PFlush = "p2p_flush"
	// StageBlockVerify covers tx-root, signature-batch, and seal
	// verification of one block.
	StageBlockVerify = "block_verify"
	// StageStateApply is the sequential state transition (ApplyBlock +
	// root commit) of one block.
	StageStateApply = "state_apply"
	// StageStateCommit is the state-root commit of one block's post-state
	// — the part of state_apply (and of block_propose) that derives the
	// account trie; N is the number of account leaves the block wrote.
	StageStateCommit = "state_commit"
	// StageDiskFlush is one write of unflushed account-trie nodes to the
	// disk state store, at checkpoint cadence; N is the nodes written.
	StageDiskFlush = "disk_flush"
	// StageDiskSweep is one mark-and-compact sweep of the disk state
	// store that reached the compaction (the node mutex is held
	// throughout); N is the records dropped, the block is the head.
	StageDiskSweep = "disk_sweep"
	// StageBlockConnect is the full validate-and-store path (verify +
	// state apply + tree insert).
	StageBlockConnect = "block_connect"
	// StageStateRebuild is an on-demand replay of a pruned state.
	StageStateRebuild = "state_rebuild"
	// StageOrphanAdopt is one worklist pass connecting buffered
	// unknown-parent descendants.
	StageOrphanAdopt = "orphan_adopt"
	// StageForkChoice is one branch-selection evaluation.
	StageForkChoice = "fork_choice"
	// StageBlockPropose is block assembly at the proposer (tx selection
	// and the one pass that builds the block's state, seal, local
	// adoption through connect).
	StageBlockPropose = "block_propose"
	// StagePowSeal is the real preimage search inside block proposal.
	StagePowSeal = "pow_seal"
	// StageTxInclusion is a transaction's admit→inclusion age: mempool
	// admission until it lands in a main-chain block (virtual time on
	// the simulator).
	StageTxInclusion = "tx_inclusion"
	// StageOrderingCut is batch formation latency at an ordering
	// service: first buffered tx until the batch is cut.
	StageOrderingCut = "ordering_cut"
	// StagePBFTRound is one PBFT slot's pre-prepare→execute round time.
	StagePBFTRound = "pbft_round"
	// StageWALAppend is one durable journal write (block or head
	// record) on the node's commit path.
	StageWALAppend = "wal_append"
	// StageRecover is one crash-recovery replay: WAL scan, checkpoint
	// load, block reconnection, and head state-root verification.
	StageRecover = "recover"
	// StageBodyRead is one block body read back from the journal because
	// the block tree no longer holds it in memory.
	StageBodyRead = "body_read"
	// StageExecParallel is the optimistic parallel apply of one block:
	// speculation lanes plus the in-order merge (internal/exec).
	StageExecParallel = "exec_parallel"
	// StageExecReplay is the serial re-execution of the conflicting
	// transaction suffix inside one parallel block apply.
	StageExecReplay = "exec_replay"
)

// Span is one traced pipeline event. The zero value of optional fields
// is omitted from the JSONL encoding to keep traces compact.
type Span struct {
	// Run labels the experiment/configuration ("pow", "ordering").
	Run string `json:"run,omitempty"`
	// Stage is the pipeline stage (one of the Stage* constants).
	Stage string `json:"stage"`
	// Start is the span's start instant in Unix nanoseconds.
	Start int64 `json:"startNs,omitempty"`
	// Dur is the span duration in nanoseconds.
	Dur int64 `json:"durNs"`
	// Peer identifies the observing node (or orderer).
	Peer string `json:"peer,omitempty"`
	// Height is the block height (or batch/slot sequence number).
	Height uint64 `json:"height,omitempty"`
	// N counts the items the span covered (txs in a block, orphans
	// adopted, solve attempts).
	N uint64 `json:"n,omitempty"`
	// Block is the short hash of the block a block-scoped stage worked
	// on: the same on every node, so one block can be followed across
	// their traces.
	Block string `json:"block,omitempty"`
}

// Duration returns the span duration as a time.Duration.
func (s Span) Duration() time.Duration { return time.Duration(s.Dur) }

// Stopwatch is an observability-only wall-clock timer. Consensus-
// critical packages must not read time.Now directly — dcslint's
// determinism analyzer flags it, because wall time that leaks into
// state or ordering forks replicas. They start a Stopwatch instead,
// which funnels every wall-clock read through this package where its
// use is auditable: elapsed times feed histograms and trace spans,
// never consensus state.
type Stopwatch struct {
	t0 time.Time
}

// StartTimer begins an observability stopwatch.
func StartTimer() Stopwatch { return Stopwatch{t0: time.Now()} }

// Start returns the stopwatch's start instant — with Elapsed, what
// Observer.Observe takes.
func (s Stopwatch) Start() time.Time { return s.t0 }

// Elapsed returns the wall time since the stopwatch started.
func (s Stopwatch) Elapsed() time.Duration { return time.Since(s.t0) }

// DefaultRingCapacity bounds the tracer's in-memory ring when no
// explicit capacity is given.
const DefaultRingCapacity = 4096

// Tracer records spans into a bounded ring, evicting oldest-first when
// full, and optionally streams every span to a JSONL sink. All methods
// are safe for concurrent use and safe on a nil receiver (no-ops), so
// components can be instrumented unconditionally.
type Tracer struct {
	mu      sync.Mutex
	run     string
	buf     []Span
	next    int // ring write cursor
	full    bool
	total   uint64
	evicted uint64
	sink    io.Writer
	sinkErr error
}

// NewTracer creates a tracer whose ring holds up to capacity spans
// (DefaultRingCapacity if capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	return &Tracer{buf: make([]Span, 0, capacity)}
}

// SetRun stamps all subsequently recorded spans (that don't carry their
// own Run) with the given run label.
func (t *Tracer) SetRun(run string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.run = run
}

// SetSink streams every recorded span to w as one JSON object per line
// (JSONL), in addition to the in-memory ring. The first write error
// disables the sink and is reported by SinkErr.
func (t *Tracer) SetSink(w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sink = w
	t.sinkErr = nil
}

// SinkErr returns the first JSONL sink write error, if any.
func (t *Tracer) SinkErr() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sinkErr
}

// Record appends a span. A zero Start is stamped with the wall clock; an
// empty Run inherits the tracer's run label. When the ring is full the
// oldest span is evicted (counted in Evicted).
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	if s.Start == 0 {
		s.Start = time.Now().UnixNano()
	}
	t.mu.Lock()
	if s.Run == "" {
		s.Run = t.run
	}
	t.total++
	if !t.full && len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, s)
		if len(t.buf) == cap(t.buf) {
			t.full = true
		}
	} else {
		t.full = true
		t.buf[t.next] = s
		t.evicted++
	}
	t.next = (t.next + 1) % cap(t.buf)
	sink := t.sink
	if sink != nil && t.sinkErr == nil {
		if data, err := json.Marshal(s); err == nil {
			data = append(data, '\n')
			if _, werr := sink.Write(data); werr != nil {
				t.sinkErr = werr
			}
		}
	}
	t.mu.Unlock()
}

// Len returns how many spans the ring currently holds.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Total returns how many spans have ever been recorded.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Evicted returns how many spans were overwritten by ring wraparound.
func (t *Tracer) Evicted() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evicted
}

// Snapshot returns the ring's spans, oldest first.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.buf))
	if t.full && cap(t.buf) == len(t.buf) {
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
	} else {
		out = append(out, t.buf...)
	}
	return out
}

// WriteJSONL writes the ring's spans (oldest first) to w, one JSON
// object per line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	for _, s := range t.Snapshot() {
		data, err := json.Marshal(s)
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if _, err := w.Write(data); err != nil {
			return err
		}
	}
	return nil
}

// StageStats summarizes the recorded spans of one stage.
type StageStats struct {
	Count uint64        `json:"count"`
	Min   time.Duration `json:"minNs"`
	Max   time.Duration `json:"maxNs"`
	Mean  time.Duration `json:"meanNs"`
	P50   time.Duration `json:"p50Ns"`
	P95   time.Duration `json:"p95Ns"`
}

// Summary aggregates the ring per stage: count, min/max, mean, and
// nearest-rank p50/p95.
func (t *Tracer) Summary() map[string]StageStats {
	spans := t.Snapshot()
	byStage := make(map[string][]time.Duration)
	for _, s := range spans {
		byStage[s.Stage] = append(byStage[s.Stage], s.Duration())
	}
	out := make(map[string]StageStats, len(byStage))
	for stage, ds := range byStage {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		var sum time.Duration
		for _, d := range ds {
			sum += d
		}
		out[stage] = StageStats{
			Count: uint64(len(ds)),
			Min:   ds[0],
			Max:   ds[len(ds)-1],
			Mean:  sum / time.Duration(len(ds)),
			P50:   quantile(ds, 0.50),
			P95:   quantile(ds, 0.95),
		}
	}
	return out
}

// Stages returns the distinct stage names present in the ring, sorted.
func (t *Tracer) Stages() []string {
	seen := make(map[string]struct{})
	for _, s := range t.Snapshot() {
		seen[s.Stage] = struct{}{}
	}
	out := make([]string, 0, len(seen))
	for stage := range seen {
		out = append(out, stage)
	}
	sort.Strings(out)
	return out
}

// quantile returns the nearest-rank q-quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Handler serves the tracer over HTTP — wire it under GET /trace.
// Without parameters it streams the ring as JSONL (newest data
// included); with ?summary=1 it returns the per-stage aggregate as one
// JSON object.
func Handler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("summary") != "" {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(map[string]any{
				"total":   t.Total(),
				"evicted": t.Evicted(),
				"stages":  t.Summary(),
			})
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		if err := t.WriteJSONL(w); err != nil {
			// Mid-stream failure: nothing recoverable to send.
			fmt.Fprintf(w, `{"error":%q}`+"\n", err.Error())
		}
	})
}

package obs

import (
	"cmp"
	"time"

	"dcsledger/internal/metrics"
)

// stageSeries is the one table of which stages feed a latency histogram,
// under which series name and with which buckets (nil = metrics.DefBuckets).
// A stage that is not here is traced only.
var stageSeries = map[string]struct {
	name    string
	buckets []float64
}{
	StageP2PFlush:     {name: "p2p_enqueue_flush_seconds"},
	StageBlockVerify:  {name: "node_block_verify_seconds"},
	StageStateApply:   {name: "node_state_apply_seconds"},
	StageStateCommit:  {name: "node_state_commit_seconds"},
	StageDiskFlush:    {name: "node_disk_flush_seconds"},
	StageDiskSweep:    {name: "node_disk_sweep_seconds"},
	StageBlockConnect: {name: "node_block_connect_seconds"},
	StageStateRebuild: {name: "node_state_rebuild_seconds"},
	StageForkChoice:   {name: "forkchoice_choose_seconds"},
	StageBlockPropose: {name: "node_block_propose_seconds"},
	StagePowSeal:      {name: "pow_seal_seconds"},
	// Admit→inclusion ages and recoveries run at block-interval scale.
	StageTxInclusion: {name: "txpool_inclusion_age_seconds", buckets: metrics.WideBuckets},
	StageWALAppend:   {name: "wal_append_seconds"},
	StageRecover:     {name: "node_recover_seconds", buckets: metrics.WideBuckets},
}

// At says what an observed stage worked on; every field is optional.
// Height, N and Block are the span's (see Span); Peer replaces the
// observer's own label (the transport names the remote end of the queue
// it flushed).
type At struct {
	Height, N   uint64
	Block, Peer string
}

// Observer is the seam every pipeline stage is observed through: one
// Observe call feeds the stage's latency histogram (GET /metrics) and the
// tracer (GET /trace, the JSONL sink) from the same measurement. Each
// component holds one. The zero value observes nothing: a nil Tracer
// records nothing, and a stage without a histogram feeds none.
type Observer struct {
	Peer   string  // labels the spans (the observing node's ID)
	Tracer *Tracer // receives one span per Observe
	hists  map[string]*metrics.Histogram
}

// NewObserver returns an observer that keeps a latency histogram for each
// of the given stages that stageSeries names.
func NewObserver(peer string, tr *Tracer, stages ...string) Observer {
	o := Observer{Peer: peer, Tracer: tr, hists: make(map[string]*metrics.Histogram, len(stages))}
	for _, stage := range stages {
		if s, ok := stageSeries[stage]; ok {
			o.hists[stage] = metrics.NewHistogram(s.name, s.buckets...)
		}
	}
	return o
}

// Register exports the observer's histograms through reg.
func (o *Observer) Register(reg *metrics.Registry) {
	for _, h := range o.hists {
		reg.RegisterHistogram(h)
	}
}

// Observe records that stage ran for dur from start, on what at names. A
// zero start (a duration that is all the caller has) is stamped with the
// wall clock when the span is recorded.
func (o *Observer) Observe(stage string, start time.Time, dur time.Duration, at At) {
	if h := o.hists[stage]; h != nil {
		h.ObserveDuration(dur)
	}
	s := Span{Stage: stage, Dur: int64(dur), Peer: cmp.Or(at.Peer, o.Peer), Height: at.Height, N: at.N, Block: at.Block}
	if !start.IsZero() {
		s.Start = start.UnixNano()
	}
	o.Tracer.Record(s)
}

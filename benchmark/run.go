package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"time"

	"dcsledger/internal/cryptoutil"
)

const (
	fleetSize = 3
	// warmUp is how long the load runs before the timed window opens.
	warmUp = 2 * time.Second
	// drainLimit bounds the wait, after the window, for the last
	// acknowledged transactions to reach every node.
	drainLimit = 5 * time.Second
	// setupReps is how many times a run sets the fleet up from nothing;
	// setup_s is the median, the last fleet is the one measured.
	setupReps = 5
	// checkpointEvery and killOffset fix the fault: the victim is first
	// killed when its height is killOffset blocks past a checkpoint, and
	// killed and restarted faultReps times in a row from there, so every
	// run replays about the same blocks on restart; the recovery time
	// reported is the median of the repetitions.
	checkpointEvery = 16
	killOffset      = 2
	faultReps       = 5
	// runDeadline is the hard wall-clock limit of one workload run,
	// without the time measured.
	runDeadline = 100 * time.Second
)

// runConfig is one invocation of one workload.
type runConfig struct {
	w            workload
	seed         int64
	window       time.Duration
	nodes        int
	replay       bool // also run the traced in-process replay
	replayBlocks int
	bin          string // ledgerd binary
	workDir      string
	traceDir     string // where trace-<workload>.jsonl goes
}

// result is what one run of one workload reports.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Checks    []string          `json:"failed_checks,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
}

// observation is everything the live run recorded, before it is turned
// into metrics and checked.
type observation struct {
	cfg     runConfig
	in      *inputs
	launch  *launcher
	fleet   *fleet
	setupS  []float64 // seconds each set-up repetition took
	setUpAt time.Time // when the last repetition ended
	recs    []txRecord
	logs    []*heightLog
	reads   []readSample
	winFrom time.Time
	winTo   time.Time

	cpuFrom, cpuTo []float64            // per node, CPU seconds at the window edges
	scrFrom, scrTo []map[string]float64 // per node, /metrics at the window edges
	scrEnd         []map[string]float64 // per node, /metrics after the fault phase
	peakRSS        []float64
	dataDirBytes   float64

	victim      int
	preKill     uint64
	recoveryS   []float64 // one per kill and restart
	catchupS    float64
	victimMatch bool // victim's block at preKill equals the miner's

	chain *chainView
}

// runWorkload sets the fleet up, drives the load, injects the fault,
// checks the outcome and computes every metric.
func runWorkload(parent context.Context, cfg runConfig) (*result, error) {
	ctx, cancel := context.WithTimeout(parent, runDeadline+cfg.window)
	defer cancel()

	o := &observation{cfg: cfg, victim: cfg.nodes - 1, launch: newLauncher()}
	defer o.launch.close() // runs after the fleet is stopped, below or in setUp
	if err := o.setUp(ctx); err != nil {
		return nil, err
	}
	defer o.fleet.stop()
	fail := func(stage string, err error) (*result, error) {
		return nil, fmt.Errorf("%s: %s: %w\n%s", cfg.w.name, stage, err, o.fleet.logTails())
	}

	pollCtx, stopPolls := context.WithCancel(ctx)
	defer stopPolls()
	var polls sync.WaitGroup
	o.logs = make([]*heightLog, cfg.nodes)
	for i, n := range o.fleet.nodes {
		o.logs[i] = &heightLog{}
		polls.Add(1)
		go func(n *proc, log *heightLog) {
			defer polls.Done()
			poll(pollCtx, n, log)
		}(n, o.logs[i])
	}

	if err := o.drive(ctx); err != nil {
		return fail("load", err)
	}
	if err := o.drain(ctx); err != nil {
		return fail("drain", err)
	}
	quiet := func() {
		stopPolls()
		polls.Wait()
	}
	if err := o.fault(ctx, quiet); err != nil {
		return fail("fault", err)
	}

	var err error
	if o.scrEnd, err = o.scrapeAll(ctx); err != nil {
		return fail("final scrape", err)
	}
	if o.chain, err = fetchChain(ctx, o.fleet); err != nil {
		return fail("fetch chain", err)
	}
	res := o.report()
	res.Checks = o.check(ctx, res)
	if n := o.fleet.exited(); n != nil {
		res.Checks = append(res.Checks, n.id+" exited on its own")
	}
	o.fleet.stop()

	if cfg.replay {
		miner := o.logs[0]
		layer, checks, err := replay(cfg, o.in, o.meanBlockTxs(), miner.mempoolSum/max(1, miner.polls))
		if err != nil {
			return nil, fmt.Errorf("%s: replay: %w", cfg.w.name, err)
		}
		for k, v := range layer {
			res.PerLayer[k] = v
		}
		res.Checks = append(res.Checks, checks...)
	}
	// A metric that is not a number (nothing committed, every request
	// failed) cannot be reported; it fails the run instead.
	for _, group := range []map[string]metric{res.EndToEnd, res.PerLayer} {
		for name, m := range group {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				res.Checks = append(res.Checks, fmt.Sprintf("metric %s is %v", name, m.Value))
				m.Value = -1
				group[name] = m
			}
		}
	}
	res.Correct = len(res.Checks) == 0
	return res, nil
}

// setUp generates the inputs and launches the fleet, setupReps times
// over, each repetition from nothing, then deploys the contract on the
// last fleet.
func (o *observation) setUp(ctx context.Context) error {
	cfg := o.cfg
	loadSeconds := (warmUp + cfg.window).Seconds()
	for rep := 0; rep < setupReps; rep++ {
		if o.fleet != nil {
			o.fleet.stop()
		}
		began := time.Now()
		in, err := generate(cfg.w, cfg.seed, cfg.w.streamLen(loadSeconds))
		if err != nil {
			return fmt.Errorf("generate: %w", err)
		}
		f, err := startFleet(ctx, o.launch, cfg.bin, filepath.Join(cfg.workDir, "fleet"), cfg.nodes, cfg.w, in.alloc())
		if err != nil {
			return fmt.Errorf("start fleet: %w", err)
		}
		o.in, o.fleet = in, f
		o.setUpAt = time.Now()
		o.setupS = append(o.setupS, o.setUpAt.Sub(began).Seconds())
	}
	// The deployment waits for a block, i.e. for the PoW lottery, so it
	// is not repeated: it would only add noise to the median.
	if o.in.deploy != nil {
		if err := o.deployContract(ctx); err != nil {
			o.fleet.stop()
			return fmt.Errorf("deploy contract: %w\n%s", err, o.fleet.logTails())
		}
	}
	return nil
}

// submitTarget is the node connection conn sends to: followers take
// the submits, so every transaction crosses the gossip mesh to the
// miner.
func (o *observation) submitTarget(conn int) *proc {
	followers := o.fleet.nodes[1:]
	return followers[conn%len(followers)]
}

// deployContract submits the deployment and waits until every node has
// executed it (the owner's nonce moved).
func (o *observation) deployContract(ctx context.Context) error {
	c := newConnClient()
	defer c.CloseIdleConnections()
	if err := post(ctx, c, o.submitTarget(0).url("/tx"), o.in.deploy.body); err != nil {
		return err
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, n := range o.fleet.nodes {
		for {
			v, err := getAccount(ctx, n, o.in.owner.Address())
			if err == nil && v.nonce == 1 {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s has not executed the deployment after 10s (last error: %v)", n.id, err)
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	return nil
}

// drive runs the warm-up and the timed window: the submit connections,
// the reader, and the CPU and /metrics snapshots at the window's edges.
func (o *observation) drive(ctx context.Context) error {
	cfg := o.cfg
	gap := time.Second / time.Duration(cfg.w.rate)
	t0 := time.Now().Add(20 * time.Millisecond)
	o.winFrom = t0.Add(warmUp)
	o.winTo = o.winFrom.Add(cfg.window)
	o.recs = make([]txRecord, len(o.in.txs))

	var load sync.WaitGroup
	for c := 0; c < submitConns; c++ {
		load.Add(1)
		go func(c int) {
			defer load.Done()
			submit(ctx, o.submitTarget(c), o.in.txs, o.recs, c, t0, gap, o.winTo)
		}(c)
	}
	load.Add(1)
	go func() {
		defer load.Done()
		o.reads = read(ctx, o.fleet.nodes[0], o.readAddrs(), cfg.w.proofs, o.winFrom, o.winTo)
	}()

	// edge waits for one edge of the window and snapshots every node's
	// CPU time and /metrics there.
	edge := func(at time.Time, cpu *[]float64, scrape *[]map[string]float64) error {
		err := sleepUntil(ctx, at)
		if err == nil {
			*cpu, err = o.cpuAll()
		}
		if err == nil {
			*scrape, err = o.scrapeAll(ctx)
		}
		return err
	}
	err := edge(o.winFrom, &o.cpuFrom, &o.scrFrom)
	if err == nil {
		err = edge(o.winTo, &o.cpuTo, &o.scrTo)
	}
	load.Wait()
	return err
}

// readAddrs is the reader's fixed round of accounts: every sender, and
// as many idle accounts again when the workload has them, so reads hit
// both the hot and the cold part of the state.
func (o *observation) readAddrs() []cryptoutil.Address {
	var out []cryptoutil.Address
	for i, k := range o.in.senders {
		out = append(out, k.Address())
		if i < len(o.in.idle) {
			out = append(out, o.in.idle[i*len(o.in.idle)/len(o.in.senders)])
		}
	}
	return out
}

func sleepUntil(ctx context.Context, t time.Time) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(time.Until(t)):
		return nil
	}
}

func (o *observation) cpuAll() ([]float64, error) {
	out := make([]float64, len(o.fleet.nodes))
	for i, n := range o.fleet.nodes {
		v, err := procCPU(n.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (o *observation) scrapeAll(ctx context.Context) ([]map[string]float64, error) {
	out := make([]map[string]float64, len(o.fleet.nodes))
	for i, n := range o.fleet.nodes {
		m, err := scrapeMetrics(ctx, n)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// drain waits until every node's mempool is empty and every follower
// has caught up with the miner, i.e. every acknowledged transaction is
// in a block that all nodes hold, then records peak memory and the
// size of a follower's data directory.
func (o *observation) drain(ctx context.Context) error {
	deadline := time.Now().Add(drainLimit)
	for {
		done := true
		var minerHeight uint64
		for i, n := range o.fleet.nodes {
			st, err := getStatus(ctx, n.client, n)
			if err != nil {
				return err
			}
			if i == 0 {
				minerHeight = st.Height
			}
			if st.Mempool > 0 || st.Height < minerHeight {
				done = false
			}
		}
		if done || time.Now().After(deadline) {
			break // a transaction still missing is counted as failed by the checks
		}
		if err := sleepUntil(ctx, time.Now().Add(10*time.Millisecond)); err != nil {
			return err
		}
	}
	o.peakRSS = make([]float64, len(o.fleet.nodes))
	for i, n := range o.fleet.nodes {
		v, err := procPeakRSS(n.cmd.Process.Pid)
		if err != nil {
			return err
		}
		o.peakRSS[i] = v
	}
	var err error
	o.dataDirBytes, err = dirBytes(o.fleet.nodes[1].dir)
	return err
}

// fault kills the last follower with SIGKILL and restarts it with
// identical flags, faultReps times in a row starting a fixed number of
// blocks past a checkpoint. Each time it measures how long the node
// takes to serve its pre-kill height again; after the last restart also
// how long it takes to serve the fleet's head, and whether its chain
// still is the miner's. quiet stops the status pollers: once the victim
// is at the kill height they are no longer needed, and their 600
// requests a second would only add noise to the restarts.
func (o *observation) fault(ctx context.Context, quiet func()) error {
	v := o.fleet.nodes[o.victim]
	miner := o.fleet.nodes[0]
	log := o.logs[o.victim]
	waitLimit := time.Now().Add(time.Duration(4*checkpointEvery) * o.cfg.w.interval)
	for log.height()%checkpointEvery != killOffset {
		if time.Now().After(waitLimit) {
			return fmt.Errorf("%s never reached a height %d past a checkpoint", v.id, killOffset)
		}
		if err := sleepUntil(ctx, time.Now().Add(time.Millisecond)); err != nil {
			return err
		}
	}
	quiet()
	c := newConnClient()
	defer c.CloseIdleConnections()
	// waitHeight polls the victim until it is at least as high as
	// target says and returns the seconds since began.
	waitHeight := func(began time.Time, target func() (uint64, error)) (float64, error) {
		for {
			want, err := target()
			if err != nil {
				return 0, err
			}
			if st, err := getStatus(ctx, c, v); err == nil && st.Height >= want {
				return time.Since(began).Seconds(), nil
			}
			if time.Since(began) > 30*time.Second {
				return 0, fmt.Errorf("%s not at height %d 30s after restart", v.id, want)
			}
			if err := sleepUntil(ctx, time.Now().Add(time.Millisecond)); err != nil {
				return 0, err
			}
		}
	}
	var began time.Time
	for rep := 0; rep < faultReps; rep++ {
		st, err := getStatus(ctx, c, v)
		if err != nil {
			return err
		}
		o.preKill = st.Height
		v.kill()
		c.CloseIdleConnections() // the old process's connection is dead
		began = time.Now()
		if err := o.fleet.startNode(v); err != nil {
			return err
		}
		s, err := waitHeight(began, func() (uint64, error) { return o.preKill, nil })
		if err != nil {
			return err
		}
		o.recoveryS = append(o.recoveryS, s)
	}
	var err error
	if o.catchupS, err = waitHeight(began, func() (uint64, error) {
		st, err := getStatus(ctx, miner.client, miner)
		return st.Height, err
	}); err != nil {
		return err
	}
	mine, err := fetchBlock(ctx, miner, o.preKill)
	if err != nil {
		return err
	}
	theirs, err := fetchBlock(ctx, v, o.preKill)
	if err != nil {
		return err
	}
	o.victimMatch = mine.Hash() == theirs.Hash()
	return nil
}

// meanBlockTxs is the mean number of user transactions in the blocks
// the miner produced inside the window, the replay's block size.
func (o *observation) meanBlockTxs() int {
	var blocks, txs int
	for _, b := range o.chain.blocks {
		if at, ok := o.logs[0].seenAt(b.Header.Height); ok && !at.Before(o.winFrom) && at.Before(o.winTo) {
			blocks++
			txs += len(b.Txs) - 1
		}
	}
	if blocks == 0 {
		return 1
	}
	return max(1, int(math.Round(float64(txs)/float64(blocks))))
}

package main

import (
	"math"
	"time"
)

// report turns the observation into the end-to-end metrics and the
// per-layer metrics that come from the live fleet (the fleet.* rows).
func (o *observation) report() *result {
	cfg := o.cfg
	res := &result{
		Workload: cfg.w.name,
		Seed:     cfg.seed,
		EndToEnd: make(map[string]metric),
		PerLayer: make(map[string]metric),
	}
	window := cfg.window.Seconds()
	inWindow := func(t time.Time) bool { return !t.Before(o.winFrom) && t.Before(o.winTo) }

	// visible is when a height was readable on every node.
	visible := func(height uint64) (time.Time, bool) {
		var latest time.Time
		for _, log := range o.logs {
			at, ok := log.seenAt(height)
			if !ok {
				return time.Time{}, false
			}
			if at.After(latest) {
				latest = at
			}
		}
		return latest, true
	}

	// Transactions: commit latency from due time over everything due
	// in the window, throughput over everything that became visible in
	// it. A transaction that was refused, timed out, or never reached
	// all nodes is failed and counts as +Inf latency.
	var commit, ack, late []float64
	committed := 0
	for k := range o.recs {
		r := &o.recs[k]
		if !r.attempted() {
			continue
		}
		var vis time.Time
		ok := false
		if h, in := o.chain.txHeight[o.in.txs[k].id]; in && !r.acked.IsZero() {
			vis, ok = visible(h)
		}
		if ok && inWindow(vis) {
			committed++
		}
		if !inWindow(r.due) {
			continue
		}
		res.Attempted++
		late = append(late, ms(r.sent.Sub(r.due)))
		if !ok {
			res.Failed++
			commit = append(commit, math.Inf(1))
			ack = append(ack, math.Inf(1))
			continue
		}
		commit = append(commit, ms(vis.Sub(r.due)))
		ack = append(ack, ms(r.acked.Sub(r.due)))
	}

	// Reads.
	var readLat []float64
	for i := range o.reads {
		s := &o.reads[i]
		res.Attempted++
		if s.err != "" {
			res.Failed++
			readLat = append(readLat, math.Inf(1))
			continue
		}
		readLat = append(readLat, ms(s.done.Sub(s.due)))
	}

	// Blocks the miner made visible inside the window.
	var minerVisible, followerLag, pipeline []float64
	blocks, blockTxs := 0, 0
	for _, b := range o.chain.blocks {
		h := b.Header.Height
		atMiner, ok := o.logs[0].seenAt(h)
		if !ok || !inWindow(atMiner) {
			continue
		}
		blocks++
		blockTxs += len(b.Txs) - 1
		sealed := time.Unix(0, b.Header.Time)
		minerVisible = append(minerVisible, ms(atMiner.Sub(sealed)))
		if all, ok := visible(h); ok {
			followerLag = append(followerLag, ms(all.Sub(atMiner)))
			pipeline = append(pipeline, ms(all.Sub(sealed)))
		}
	}

	var cpu, minerCPU, followerCPU float64
	for i := range o.cpuFrom {
		d := o.cpuTo[i] - o.cpuFrom[i]
		cpu += d
		if i == 0 {
			minerCPU = d
		} else {
			followerCPU += d / float64(len(o.cpuFrom)-1)
		}
	}
	var rss float64
	for _, v := range o.peakRSS {
		rss += v
	}
	ktx := float64(committed) / 1000

	e := res.EndToEnd
	// Set-up is everything before the window opens: the repeated part
	// (generate, sign, launch, ready) by its median, then what happens
	// once on the kept fleet (contract deployment, warm-up).
	launch := median(o.setupS)
	e["setup_s"] = metric{Value: launch + o.winFrom.Sub(o.setUpAt).Seconds(), Unit: "s", Samples: len(o.setupS)}
	e["committed_tps"] = metric{Value: float64(committed) / window, Unit: "tx/s", Samples: committed}
	e["rss_mb"] = metric{Value: rss / (1 << 20), Unit: "MB", Samples: len(o.peakRSS)}
	e["disk_bytes_per_tx"] = metric{Value: ratio(o.dataDirBytes, float64(len(o.chain.txHeight))), Unit: "bytes", Samples: len(o.chain.txHeight)}

	// Counter movement over the window, per node and summed.
	delta := func(i int, name string) float64 { return o.scrTo[i][name] - o.scrFrom[i][name] }
	sum := func(name string) float64 {
		var t float64
		for i := range o.scrTo {
			t += delta(i, name)
		}
		return t
	}
	histMs := func(i int, name string) float64 {
		return 1000 * ratio(delta(i, name+"_sum"), delta(i, name+"_count"))
	}
	followerMs := func(name string) float64 {
		var t float64
		for i := 1; i < len(o.scrTo); i++ {
			t += histMs(i, name) / float64(len(o.scrTo)-1)
		}
		return t
	}
	const f1 = 1 // the follower whose storage counters are reported
	f1Blocks := delta(f1, "node_blocks_accepted_total")
	// Fault counters are totals since a process started: the final
	// scrape covers every running process, the end-of-window scrape the
	// victim's first life. Dropped frames are counted to the end of the
	// window only; afterwards peers rightly drop what the dead node
	// cannot take.
	errTotals := map[string]float64{}
	for _, name := range []string{"node_wal_append_errors_total", "node_disk_root_mismatches_total", "node_blocks_rejected_total", "node_reorgs_total"} {
		errTotals[name] = o.scrTo[o.victim][name]
		for i := range o.scrEnd {
			errTotals[name] += o.scrEnd[i][name]
		}
	}
	for i := range o.scrTo {
		errTotals["p2p_dropped_total"] += o.scrTo[i]["p2p_dropped_total"]
	}

	p := res.PerLayer
	p["fleet.blocks"] = metric{Value: float64(blocks), Unit: "count"}
	p["fleet.txs_per_block"] = metric{Value: ratio(float64(blockTxs), float64(blocks)), Unit: "count", Samples: blocks}
	p["fleet.mempool_peak"] = metric{Value: float64(o.logs[0].mempoolPeak), Unit: "count"}
	p["fleet.submit_p50_ms"] = metric{Value: median(ack), Unit: "ms", Samples: len(ack)}
	p["fleet.submit_p99_ms"] = metric{Value: percentile(ack, 0.99), Unit: "ms", Samples: len(ack)}
	p["fleet.launch_s"] = metric{Value: launch, Unit: "s", Samples: len(o.setupS)}
	p["fleet.commit_p50_ms"] = metric{Value: median(commit), Unit: "ms", Samples: len(commit)}
	p["fleet.commit_p99_ms"] = metric{Value: percentile(commit, 0.99), Unit: "ms", Samples: len(commit)}
	p["fleet.read_p50_ms"] = metric{Value: median(readLat), Unit: "ms", Samples: len(readLat)}
	p["fleet.read_p99_ms"] = metric{Value: percentile(readLat, 0.99), Unit: "ms", Samples: len(readLat)}
	p["fleet.gen_late_p99_ms"] = metric{Value: percentile(late, 0.99), Unit: "ms", Samples: len(late)}
	p["fleet.miner_visible_p50_ms"] = metric{Value: median(minerVisible), Unit: "ms", Samples: len(minerVisible)}
	p["fleet.follower_lag_p50_ms"] = metric{Value: median(followerLag), Unit: "ms", Samples: len(followerLag)}
	p["fleet.pipeline_p50_ms"] = metric{Value: median(pipeline), Unit: "ms", Samples: len(pipeline)}
	p["fleet.pipeline_p99_ms"] = metric{Value: percentile(pipeline, 0.99), Unit: "ms", Samples: len(pipeline)}
	p["fleet.cpu_s_per_ktx"] = metric{Value: ratio(cpu, ktx), Unit: "cpu_s", Samples: committed}
	p["fleet.miner_cpu_s_per_ktx"] = metric{Value: ratio(minerCPU, ktx), Unit: "cpu_s"}
	p["fleet.follower_cpu_s_per_ktx"] = metric{Value: ratio(followerCPU, ktx), Unit: "cpu_s"}
	p["fleet.failed_share"] = metric{Value: ratio(float64(res.Failed), float64(res.Attempted)), Unit: "ratio", Samples: res.Attempted}
	p["fleet.recovery_s"] = metric{Value: median(o.recoveryS), Unit: "s", Samples: len(o.recoveryS)}
	p["fleet.catchup_s"] = metric{Value: o.catchupS, Unit: "s", Samples: 1}
	p["fleet.propose_ms_per_block"] = metric{Value: histMs(0, "node_block_propose_seconds"), Unit: "ms"}
	p["fleet.connect_ms_per_block"] = metric{Value: followerMs("node_block_connect_seconds"), Unit: "ms"}
	p["fleet.verify_ms_per_block"] = metric{Value: followerMs("node_block_verify_seconds"), Unit: "ms"}
	p["fleet.apply_ms_per_block"] = metric{Value: followerMs("node_state_apply_seconds"), Unit: "ms"}
	p["fleet.exec_replayed_share"] = metric{Value: ratio(delta(f1, "exec_replayed_txs_total"), float64(blockTxs)), Unit: "ratio"}
	p["fleet.exec_conflict_block_share"] = metric{Value: ratio(delta(f1, "exec_conflicts_total"), delta(f1, "exec_parallel_blocks_total")), Unit: "ratio"}
	p["fleet.reorgs"] = metric{Value: errTotals["node_reorgs_total"], Unit: "count"}
	p["fleet.blocks_rejected"] = metric{Value: errTotals["node_blocks_rejected_total"], Unit: "count"}
	p["fleet.wal_fsyncs_per_block"] = metric{Value: ratio(delta(f1, "wal_fsyncs_total"), f1Blocks), Unit: "count"}
	p["fleet.wal_bytes_per_tx"] = metric{Value: ratio(delta(f1, "wal_bytes_written_total"), float64(blockTxs)), Unit: "bytes"}
	p["fleet.wal_append_ms_per_block"] = metric{Value: 1000 * ratio(delta(f1, "wal_append_seconds_sum"), f1Blocks), Unit: "ms"}
	p["fleet.wal_append_errors"] = metric{Value: errTotals["node_wal_append_errors_total"], Unit: "count"}
	p["fleet.nodestore_appends_per_block"] = metric{Value: ratio(delta(f1, "nodestore_appends_total"), f1Blocks), Unit: "count"}
	p["fleet.nodestore_cache_hit_share"] = metric{
		Value: ratio(delta(f1, "nodestore_cache_hits_total"), delta(f1, "nodestore_cache_hits_total")+delta(f1, "nodestore_cache_misses_total")),
		Unit:  "ratio",
	}
	p["fleet.disk_root_mismatches"] = metric{Value: errTotals["node_disk_root_mismatches_total"], Unit: "count"}
	p["fleet.p2p_msgs_per_tx"] = metric{Value: ratio(sum("p2p_sent_total"), float64(blockTxs)), Unit: "count"}
	p["fleet.p2p_dropped"] = metric{Value: errTotals["p2p_dropped_total"], Unit: "count"}
	p["fleet.gossip_dup_share"] = metric{
		Value: ratio(sum("gossip_duplicate_total"), sum("gossip_duplicate_total")+sum("gossip_delivered_total")),
		Unit:  "ratio",
	}
	return res
}

// Command dcsbench regenerates the paper-reproduction experiment tables
// E1–E18 (see DESIGN.md's per-experiment index and EXPERIMENTS.md for
// paper-claim vs measured).
//
// Usage:
//
//	dcsbench -list
//	dcsbench -e E3
//	dcsbench -e all -scale 0.5
//	dcsbench -stages -trace-file trace.jsonl
//	dcsbench -scenario all -scenario-nodes 64,1000
//
// -stages runs the per-stage pipeline latency comparison (PoW network
// vs ordering-service pipeline) instead of the numbered experiments,
// printing one latency table per run; -trace-file additionally dumps
// the raw spans as JSONL.
//
// -scenario runs the adversarial scenario harness (internal/scenario)
// for the named consensus families and prints the FRONTIER table; each
// cell is run twice and the determinism contract (bit-identical
// reports) is enforced, not sampled.
//
// Everything here is deterministic or runs on the virtual clock.
// Wall-clock measurement of the node (state store, execution, codecs)
// is the fleet benchmark's: bash benchmark/run.sh, docs/BENCHMARKS.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dcsledger/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dcsbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dcsbench", flag.ContinueOnError)
	var (
		experiment = fs.String("e", "all", "experiment id (E1..E18) or 'all'")
		scale      = fs.Float64("scale", 1.0, "workload scale in (0,1]")
		list       = fs.Bool("list", false, "list experiments and exit")
		stages     = fs.Bool("stages", false, "run the per-stage pipeline latency comparison (PoW vs ordering)")
		traceFn    = fs.String("trace-file", "", "with -stages: write raw trace spans to this JSONL file")
		scen       = fs.String("scenario", "", "run the adversarial scenario sweep for comma-separated families (pow,pbft,raft or 'all')")
		scenNodes  = fs.String("scenario-nodes", "64", "with -scenario: comma-separated node counts")
		scenSeed   = fs.Int64("scenario-seed", 1, "with -scenario: simulation seed")
		scenMem    = fs.Bool("scenario-mem", false, "with -scenario: keep pow nodes memory-only (no WAL, no crash-recovery steps)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, id := range bench.IDs() {
			fmt.Println(id)
		}
		return nil
	}
	if *scale <= 0 || *scale > 1 {
		return fmt.Errorf("scale %v out of (0,1]", *scale)
	}
	if *scen != "" {
		return runScenario(*scen, *scenNodes, *scenSeed, *scenMem)
	}
	if *stages {
		return runStages(*scale, *traceFn)
	}
	var ids []string
	if strings.EqualFold(*experiment, "all") {
		ids = bench.IDs()
	} else {
		ids = strings.Split(*experiment, ",")
	}
	registry := bench.Experiments()
	for _, id := range ids {
		id = strings.ToUpper(strings.TrimSpace(id))
		runner, ok := registry[id]
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", id)
		}
		start := time.Now()
		table, err := runner(*scale)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Println(table.String())
		fmt.Printf("(%s completed in %s)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// runStages executes the pipeline latency comparison and prints its
// per-stage tables, optionally dumping the raw spans as JSONL.
func runStages(scale float64, traceFn string) error {
	var traceOut io.Writer
	if traceFn != "" {
		f, err := os.Create(traceFn)
		if err != nil {
			return err
		}
		defer f.Close()
		traceOut = f
	}
	start := time.Now()
	tables, err := bench.StageLatency(scale, traceOut)
	if err != nil {
		return err
	}
	for _, t := range tables {
		fmt.Println(t.String())
	}
	if traceFn != "" {
		fmt.Printf("trace spans written to %s\n", traceFn)
	}
	fmt.Printf("(stages completed in %s)\n", time.Since(start).Round(time.Millisecond))
	return nil
}

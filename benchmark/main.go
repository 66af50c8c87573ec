// Command benchmark is the fleet benchmark: it runs one workload against
// three real ledgerd processes over loopback TCP, checks that the fleet
// stayed correct, and reports the end-to-end metrics; with -trace 1 it
// also replays the same inputs through each layer's public functions in
// this process and reports the per-layer metrics. BENCHMARK.json at the
// root of the repository names every workload and metric; README.md in
// this directory explains them.
//
// It is started through run.sh, which builds ledgerd and this program
// into .bench_build first:
//
//	bash benchmark/run.sh --workload transfer-steady --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "workload to run: "+workloadNames()+", or all")
		seed     = fs.Int64("seed", 1, "seed of the generated inputs")
		seconds  = fs.Int("seconds", 20, "length of the timed window")
		trace    = fs.Int("trace", 0, "0: report the end-to-end metrics; 1: also run the traced replay and report the per-layer metrics")
		bin      = fs.String("ledgerd", ".bench_build/bin/ledgerd", "ledgerd binary to run")
		work     = fs.String("work", ".bench_build/work", "directory for node data, logs, results and traces")
		compare  = fs.Bool("compare", false, "compare two results files given as arguments; exit 1 if any end-to-end metric is outside its bound")
		manifest = fs.String("manifest", "BENCHMARK.json", "the benchmark's manifest (bounds for -compare)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare A.json B.json")
			return 2
		}
		return compareFiles(*manifest, fs.Arg(0), fs.Arg(1))
	}
	var todo []workload
	if *name == "all" {
		todo = workloads
	} else if w, ok := findWorkload(*name); ok {
		todo = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "unknown workload %q (want %s, or all)\n", *name, workloadNames())
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "-seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	absBin, err := filepath.Abs(*bin)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	// A signal cancels the run; runWorkload's deferred stop then kills
	// the fleet before the process exits.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	defer cancel()

	out := resultsFile{Meta: environment(*seed, *seconds), Workloads: map[string]*result{}}
	status := 0
	var last *result
	for _, w := range todo {
		// Each run gets a directory of its own, so two runs in one
		// checkout cannot share node data.
		dir := filepath.Join(*work, fmt.Sprintf("%s-seed%d-pid%d", w.name, *seed, os.Getpid()))
		res, err := runWorkload(ctx, runConfig{
			w: w, seed: *seed, window: time.Duration(*seconds) * time.Second,
			nodes: fleetSize, replay: *trace == 1, replayBlocks: 40,
			bin: absBin, workDir: dir, traceDir: *work,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		// Node data is only worth keeping when something went wrong.
		if res.Correct {
			_ = os.RemoveAll(dir) // leftovers are harmless and .gitignore'd
		} else {
			status = 1
			fmt.Fprintf(os.Stderr, "benchmark: %s: correctness checks failed (node data kept in %s):\n  %s\n",
				w.name, dir, strings.Join(res.Checks, "\n  "))
		}
		printResult(os.Stdout, res)
		out.Workloads[w.name] = res
		last = res
	}
	path := filepath.Join(*work, fmt.Sprintf("results-%s-seed%d-trace%d.json", *name, *seed, *trace))
	if err := writeJSON(path, out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("results written to %s\n", path)

	// The contract's result line: the last line of standard output.
	metrics := last.EndToEnd
	if *trace == 1 {
		metrics = last.PerLayer
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{last.Correct, last.Attempted, last.Failed, stripSamples(metrics)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	return status
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// stripSamples drops the sample counts: the result line carries exactly
// value and unit per metric.
func stripSamples(in map[string]metric) map[string]metric {
	out := make(map[string]metric, len(in))
	for k, m := range in {
		m.Samples = 0
		out[k] = m
	}
	return out
}

func printResult(w *os.File, res *result) {
	fmt.Fprintf(w, "== %s (seed %d): correct=%v attempted=%d failed=%d\n", res.Workload, res.Seed, res.Correct, res.Attempted, res.Failed)
	for _, group := range []map[string]metric{res.EndToEnd, res.PerLayer} {
		names := make([]string, 0, len(group))
		for k := range group {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			m := group[k]
			if m.Samples > 0 {
				fmt.Fprintf(w, "%-40s %14.4f %-6s (n=%d)\n", k, m.Value, m.Unit, m.Samples)
			} else {
				fmt.Fprintf(w, "%-40s %14.4f %s\n", k, m.Value, m.Unit)
			}
		}
	}
}

// resultsFile is the JSON a run leaves behind for -compare.
type resultsFile struct {
	Meta      map[string]any     `json:"meta"`
	Workloads map[string]*result `json:"workloads"`
}

// environment stamps a results file with what the numbers depend on.
func environment(seed int64, seconds int) map[string]any {
	// git must not look for a repository above the checkout: a
	// benchmark checkout is not one, and its parents are not ours.
	git := exec.Command("git", "rev-parse", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	return map[string]any{
		"commit":     firstLine(git),
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"kernel":     firstLine(exec.Command("uname", "-sr")),
		"seed":       seed,
		"window_s":   seconds,
		"warmup_s":   warmUp.Seconds(),
		"setup_reps": setupReps,
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

// firstLine runs cmd and returns the first line of its output, or
// "unknown" (a benchmark checkout need not be a git repository).
func firstLine(cmd *exec.Cmd) string {
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(out), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

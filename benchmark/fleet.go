package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// httpTimeout bounds every HTTP call the harness makes; a timeout or a
// non-200 answer counts as a failed operation.
const httpTimeout = 2 * time.Second

// launcher starts child processes from one OS thread that lives as long
// as the harness. Pdeathsig is delivered when the *thread* that forked
// the child exits, so forking from an ordinary goroutine could kill a
// node early; forking from a pinned thread makes the kernel kill every
// node if the harness dies in any way, including SIGKILL.
type launcher struct {
	reqs chan launchReq
}

type launchReq struct {
	cmd  *exec.Cmd
	done chan error
}

func newLauncher() *launcher {
	l := &launcher{reqs: make(chan launchReq)}
	go func() {
		runtime.LockOSThread()
		for r := range l.reqs {
			r.done <- r.cmd.Start()
		}
	}()
	return l
}

// close ends the launcher's thread. Only call it once every child it
// started is dead: the thread's exit is what Pdeathsig waits for.
func (l *launcher) close() { close(l.reqs) }

func (l *launcher) start(cmd *exec.Cmd) error {
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	r := launchReq{cmd: cmd, done: make(chan error, 1)}
	l.reqs <- r
	return <-r.done
}

// proc is one ledgerd process of the fleet.
type proc struct {
	id       string
	p2pAddr  string
	httpAddr string
	dir      string
	logPath  string
	mine     bool

	cmd    *exec.Cmd
	waited chan struct{} // closed when cmd.Wait returned
	client *http.Client  // control-plane client (status, metrics, checks)
}

func (n *proc) url(path string) string { return "http://" + n.httpAddr + path }

// fleet is the set of ledgerd processes of one run, plus what is needed
// to start any of them again with identical flags.
type fleet struct {
	bin     string
	nodes   []*proc
	common  []string // flags shared by every node
	launch  *launcher
	stopped bool
	mu      sync.Mutex
}

// freePorts asks the kernel for n distinct free loopback ports. The
// listeners are closed before the nodes bind, so another process can
// still take one in between; startFleet retries with fresh ports then.
func freePorts(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("allocate port: %w", err)
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// startFleet launches count ledgerd processes in a full mesh under dir
// (node 0 mines) and waits until every node answers /status. ledgerd
// listens for peers before it serves HTTP, so from then on every link
// of the mesh can be dialled; the first gossip dials it, in the warm-up.
// Waiting for a first block instead would time the PoW lottery.
func startFleet(ctx context.Context, l *launcher, bin, dir string, count int, w workload, alloc []string) (*fleet, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		f, err := tryStartFleet(ctx, l, bin, dir, count, w, alloc)
		if err == nil {
			return f, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return nil, lastErr
}

func tryStartFleet(ctx context.Context, l *launcher, bin, dir string, count int, w workload, alloc []string) (*fleet, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ports, err := freePorts(2 * count)
	if err != nil {
		return nil, err
	}
	f := &fleet{bin: bin, launch: l}
	f.common = []string{
		"-interval", w.interval.String(),
		"-fsync", w.fsync,
		"-state-backend", w.backend,
		// The fault phase kills a follower a fixed number of blocks past
		// a checkpoint; 16 keeps the wait for that height short.
		"-checkpoint-every", strconv.Itoa(checkpointEvery),
	}
	if w.stateCache > 0 {
		f.common = append(f.common, "-state-cache", strconv.FormatInt(w.stateCache, 10))
	}
	for _, a := range alloc {
		f.common = append(f.common, "-alloc", a)
	}
	for i := 0; i < count; i++ {
		id := fmt.Sprintf("n%d", i)
		f.nodes = append(f.nodes, &proc{
			id:       id,
			p2pAddr:  ports[2*i],
			httpAddr: ports[2*i+1],
			dir:      filepath.Join(dir, id),
			logPath:  filepath.Join(dir, id+".log"),
			mine:     i == 0,
			client:   &http.Client{Timeout: httpTimeout},
		})
	}
	for _, n := range f.nodes {
		if err := f.startNode(n); err != nil {
			f.stop()
			return nil, err
		}
	}
	if err := f.waitReady(ctx); err != nil {
		tails := f.logTails()
		f.stop()
		return nil, fmt.Errorf("%w\n%s", err, tails)
	}
	return f, nil
}

// startNode (re)starts n with the fleet's flags, appending to its log.
func (f *fleet) startNode(n *proc) error {
	args := []string{
		"-id", n.id, "-listen", n.p2pAddr, "-http", n.httpAddr,
		"-data-dir", n.dir, "-mine=" + strconv.FormatBool(n.mine),
	}
	for _, p := range f.nodes {
		if p != n {
			args = append(args, "-peer", p.id+"="+p.p2pAddr)
		}
	}
	args = append(args, f.common...)
	logf, err := os.OpenFile(n.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(f.bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := f.launch.start(cmd); err != nil {
		return fmt.Errorf("start %s: %w", n.id, err)
	}
	n.cmd = cmd
	n.waited = make(chan struct{})
	go func(waited chan struct{}) {
		_ = cmd.Wait() // exit status is irrelevant: nodes only ever die by our signal
		close(waited)
	}(n.waited)
	return nil
}

// kill sends SIGKILL to n's process group and waits for it to be gone.
func (n *proc) kill() {
	if n.cmd == nil || n.cmd.Process == nil {
		return
	}
	_ = syscall.Kill(-n.cmd.Process.Pid, syscall.SIGKILL) // already-dead is fine
	<-n.waited
}

// stop kills every node and waits for each to end. Safe to call twice
// and from the signal handler.
func (f *fleet) stop() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stopped {
		return
	}
	f.stopped = true
	for _, n := range f.nodes {
		n.kill()
	}
}

// exited reports a node whose process ended although nobody killed it.
func (f *fleet) exited() *proc {
	for _, n := range f.nodes {
		select {
		case <-n.waited:
			return n
		default:
		}
	}
	return nil
}

type nodeStatus struct {
	Height  uint64 `json:"height"`
	Head    string `json:"head"`
	Mempool int    `json:"mempool"`
}

func getStatus(ctx context.Context, c *http.Client, n *proc) (nodeStatus, error) {
	var st nodeStatus
	err := getJSON(ctx, c, n.url("/status"), &st)
	return st, err
}

// getJSON fetches url and decodes the 200 answer into v.
func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// waitReady polls until every node serves /status.
func (f *fleet) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		if n := f.exited(); n != nil {
			return fmt.Errorf("%s exited during start-up", n.id)
		}
		ready := true
		for _, n := range f.nodes {
			if _, err := getStatus(ctx, n.client, n); err != nil {
				ready = false
				break
			}
		}
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("fleet not ready after 20s")
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// logTails returns the last lines of every node's log, for failures.
func (f *fleet) logTails() string {
	var b strings.Builder
	for _, n := range f.nodes {
		data, err := os.ReadFile(n.logPath)
		if err != nil {
			continue
		}
		lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
		if len(lines) > 15 {
			lines = lines[len(lines)-15:]
		}
		fmt.Fprintf(&b, "--- %s (%s)\n%s\n", n.id, n.logPath, strings.Join(lines, "\n"))
	}
	return b.String()
}

// procCPU returns the user+system CPU seconds a process has used.
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may hold spaces; the fields
	// after the closing parenthesis are positional (utime is the 14th
	// field of the line, stime the 15th).
	i := bytes.LastIndexByte(data, ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	const clockTick = 100 // USER_HZ, fixed at 100 on every Linux ABI
	return (utime + stime) / clockTick, nil
}

// procPeakRSS returns a process's peak resident set in bytes (VmHWM).
func procPeakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM in /proc/%d/status", pid)
			}
			return kb * 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (float64, error) {
	var total float64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += float64(info.Size())
		}
		return nil
	})
	return total, err
}

// scrapeMetrics reads a node's GET /metrics into name → value.
// Histogram bucket lines are skipped; _sum and _count are kept.
func scrapeMetrics(ctx context.Context, n *proc) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.url("/metrics"), nil)
	if err != nil {
		return nil, err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics on %s: %s", n.id, resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "_bucket{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

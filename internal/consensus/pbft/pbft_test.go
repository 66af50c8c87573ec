package pbft

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dcsledger/internal/p2p"
	"dcsledger/internal/simclock"
)

type cluster struct {
	sim     *simclock.Simulator
	net     *p2p.SimNetwork
	nodes   []*Node
	applied map[p2p.NodeID][]string
	ids     []p2p.NodeID
}

func newCluster(t *testing.T, n int) *cluster {
	t.Helper()
	sim := simclock.NewSimulator()
	net := p2p.NewSimNetwork(sim, 5, p2p.WithLatency(10*time.Millisecond))
	c := &cluster{sim: sim, net: net, applied: make(map[p2p.NodeID][]string)}
	for i := 0; i < n; i++ {
		c.ids = append(c.ids, p2p.NodeName(i))
	}
	for _, id := range c.ids {
		id := id
		mux := p2p.NewMux()
		ep, err := net.Join(id, mux.Dispatch)
		if err != nil {
			t.Fatalf("Join: %v", err)
		}
		node, err := NewNode(id, c.ids, ep, sim, Config{ViewTimeout: time.Second},
			func(seq uint64, op []byte) {
				c.applied[id] = append(c.applied[id], string(op))
			})
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		mux.Handle(MsgPrefix, node.HandleMessage)
		c.nodes = append(c.nodes, node)
	}
	return c
}

func (c *cluster) primary() *Node { return c.nodes[0] } // view 0 primary

func TestNewNodeValidation(t *testing.T) {
	sim := simclock.NewSimulator()
	net := p2p.NewSimNetwork(sim, 1)
	ep, err := net.Join("x", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewNode("x", []p2p.NodeID{"x", "y", "z"}, ep, sim, Config{}, nil); !errors.Is(err, ErrTooFew) {
		t.Fatalf("want ErrTooFew, got %v", err)
	}
	if _, err := NewNode("x", []p2p.NodeID{"a", "b", "c", "d"}, ep, sim, Config{}, nil); err == nil {
		t.Fatal("id outside replica set must be rejected")
	}
}

func TestFaultFreeAgreement(t *testing.T) {
	c := newCluster(t, 4)
	for i := 0; i < 10; i++ {
		if err := c.primary().Propose([]byte(fmt.Sprintf("op-%d", i))); err != nil {
			t.Fatalf("Propose: %v", err)
		}
	}
	c.sim.RunFor(2 * time.Second)
	for _, id := range c.ids {
		got := c.applied[id]
		if len(got) != 10 {
			t.Fatalf("replica %s executed %d/10", id, len(got))
		}
		for i, v := range got {
			if v != fmt.Sprintf("op-%d", i) {
				t.Fatalf("replica %s order broken at %d: %q", id, i, v)
			}
		}
	}
}

func TestProposeViaBackup(t *testing.T) {
	c := newCluster(t, 4)
	if err := c.nodes[2].Propose([]byte("from-backup")); err != nil {
		t.Fatalf("Propose: %v", err)
	}
	c.sim.RunFor(2 * time.Second)
	for _, id := range c.ids {
		if got := c.applied[id]; len(got) != 1 || got[0] != "from-backup" {
			t.Fatalf("replica %s applied %v", id, got)
		}
	}
}

func TestToleratesBackupCrashes(t *testing.T) {
	// n=7 tolerates f=2 crashed backups.
	c := newCluster(t, 7)
	if c.primary().F() != 2 {
		t.Fatalf("F = %d, want 2", c.primary().F())
	}
	c.nodes[5].Stop()
	c.nodes[6].Stop()
	for i := 0; i < 5; i++ {
		if err := c.primary().Propose([]byte(fmt.Sprintf("op-%d", i))); err != nil {
			t.Fatalf("Propose: %v", err)
		}
	}
	c.sim.RunFor(3 * time.Second)
	for i := 0; i < 5; i++ {
		id := c.ids[i]
		if got := c.applied[id]; len(got) != 5 {
			t.Fatalf("replica %s executed %d/5 with f crashed backups", id, len(got))
		}
	}
}

func TestExceedingFStalls(t *testing.T) {
	// n=4 tolerates f=1; crashing 2 backups must prevent commitment
	// (safety over liveness).
	c := newCluster(t, 4)
	c.nodes[2].Stop()
	c.nodes[3].Stop()
	if err := c.primary().Propose([]byte("stuck")); err != nil {
		t.Fatalf("Propose: %v", err)
	}
	c.sim.RunFor(10 * time.Second)
	for _, id := range c.ids[:2] {
		if len(c.applied[id]) != 0 {
			t.Fatalf("replica %s executed with quorum unavailable", id)
		}
	}
}

func TestPrimaryCrashViewChange(t *testing.T) {
	c := newCluster(t, 4)
	// Commit something in view 0 first.
	if err := c.primary().Propose([]byte("before")); err != nil {
		t.Fatalf("Propose: %v", err)
	}
	c.sim.RunFor(2 * time.Second)

	c.primary().Stop()
	// A backup receives a request; the primary is dead, so the view
	// change fires and the op commits in view 1.
	if err := c.nodes[1].Propose([]byte("after")); err != nil {
		t.Fatalf("Propose: %v", err)
	}
	c.sim.RunFor(10 * time.Second)
	for _, id := range c.ids[1:] {
		got := c.applied[id]
		if len(got) != 2 || got[0] != "before" || got[1] != "after" {
			t.Fatalf("replica %s applied %v", id, got)
		}
	}
	if v := c.nodes[1].View(); v == 0 {
		t.Fatal("view must have advanced")
	}
	if c.nodes[1].Primary() == c.ids[0] {
		t.Fatal("dead replica must not remain primary")
	}
}

func TestEquivocatingPrimaryCannotSplitExecution(t *testing.T) {
	// A Byzantine primary sends different pre-prepares for the same
	// sequence to different backups. No conflicting ops may execute at
	// the same position on any two correct replicas.
	sim := simclock.NewSimulator()
	net := p2p.NewSimNetwork(sim, 9, p2p.WithLatency(10*time.Millisecond))
	ids := []p2p.NodeID{"evil", "r1", "r2", "r3"}
	applied := make(map[p2p.NodeID][]string)
	var nodes []*Node
	// The evil primary is raw: we drive its messages by hand.
	evilEp, err := net.Join("evil", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids[1:] {
		id := id
		mux := p2p.NewMux()
		ep, err := net.Join(id, mux.Dispatch)
		if err != nil {
			t.Fatal(err)
		}
		node, err := NewNode(id, ids, ep, sim, Config{ViewTimeout: time.Second},
			func(seq uint64, op []byte) { applied[id] = append(applied[id], string(op)) })
		if err != nil {
			t.Fatal(err)
		}
		mux.Handle(MsgPrefix, node.HandleMessage)
		nodes = append(nodes, node)
	}
	send := func(to p2p.NodeID, op string) {
		pp := prePrepare{View: 0, Seq: 1, Digest: opDigest([]byte(op)), Op: []byte(op)}
		_ = evilEp.Send(to, p2p.Message{Type: MsgPrefix + "pre-prepare", Data: pp.encode()})
	}
	send("r1", "op-A")
	send("r2", "op-A")
	send("r3", "op-B")
	sim.RunFor(5 * time.Second)
	// With only 2 prepares for A (r1, r2 + evil's implicit = 3 = 2f+1
	// actually)... the point of the assertion: no two correct replicas
	// disagree about position 1.
	var first string
	for _, id := range ids[1:] {
		if len(applied[id]) == 0 {
			continue
		}
		if first == "" {
			first = applied[id][0]
		}
		if applied[id][0] != first {
			t.Fatalf("split execution: %v", applied)
		}
	}
	_ = nodes
}

func TestStoppedPropose(t *testing.T) {
	c := newCluster(t, 4)
	c.nodes[1].Stop()
	if err := c.nodes[1].Propose([]byte("x")); !errors.Is(err, ErrStopped) {
		t.Fatalf("want ErrStopped, got %v", err)
	}
}

func TestThroughputManyOps(t *testing.T) {
	c := newCluster(t, 4)
	const ops = 100
	for i := 0; i < ops; i++ {
		if err := c.primary().Propose([]byte(fmt.Sprintf("op-%03d", i))); err != nil {
			t.Fatalf("Propose: %v", err)
		}
	}
	c.sim.RunFor(10 * time.Second)
	if got := c.primary().Applied(); got != ops {
		t.Fatalf("primary executed %d/%d", got, ops)
	}
	for _, id := range c.ids {
		if len(c.applied[id]) != ops {
			t.Fatalf("replica %s executed %d/%d", id, len(c.applied[id]), ops)
		}
	}
}

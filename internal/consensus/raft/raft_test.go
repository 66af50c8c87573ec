package raft

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dcsledger/internal/p2p"
	"dcsledger/internal/simclock"
)

// cluster wires n raft nodes over a simulated network.
type cluster struct {
	sim     *simclock.Simulator
	net     *p2p.SimNetwork
	nodes   map[p2p.NodeID]*Node
	applied map[p2p.NodeID][]string
	ids     []p2p.NodeID
}

func newCluster(t *testing.T, n int) *cluster {
	t.Helper()
	sim := simclock.NewSimulator()
	net := p2p.NewSimNetwork(sim, 7, p2p.WithLatency(10*time.Millisecond))
	c := &cluster{
		sim:     sim,
		net:     net,
		nodes:   make(map[p2p.NodeID]*Node),
		applied: make(map[p2p.NodeID][]string),
	}
	for i := 0; i < n; i++ {
		c.ids = append(c.ids, p2p.NodeName(i))
	}
	for i, id := range c.ids {
		id := id
		var peers []p2p.NodeID
		for _, other := range c.ids {
			if other != id {
				peers = append(peers, other)
			}
		}
		mux := p2p.NewMux()
		ep, err := net.Join(id, mux.Dispatch)
		if err != nil {
			t.Fatalf("Join: %v", err)
		}
		node := NewNode(id, peers, ep, sim, rand.New(rand.NewSource(int64(i+1))),
			Config{ElectionTimeout: 200 * time.Millisecond},
			func(idx uint64, data []byte) {
				c.applied[id] = append(c.applied[id], string(data))
			})
		mux.Handle(MsgPrefix, node.HandleMessage)
		c.nodes[id] = node
	}
	for _, node := range c.nodes {
		node.Start()
	}
	return c
}

func (c *cluster) leader(t *testing.T) *Node {
	t.Helper()
	for round := 0; round < 100; round++ {
		c.sim.RunFor(100 * time.Millisecond)
		var leaders []*Node
		for _, n := range c.nodes {
			if n.IsLeader() && !n.stopped {
				leaders = append(leaders, n)
			}
		}
		if len(leaders) == 1 {
			return leaders[0]
		}
	}
	t.Fatal("no stable leader elected")
	return nil
}

func TestElectsSingleLeader(t *testing.T) {
	c := newCluster(t, 5)
	leader := c.leader(t)
	// Every node should agree on the leader after settling.
	c.sim.RunFor(time.Second)
	for id, n := range c.nodes {
		if n.Leader() != leader.id {
			t.Fatalf("node %s sees leader %q, want %q", id, n.Leader(), leader.id)
		}
	}
	// Exactly one leader in the final state.
	count := 0
	for _, n := range c.nodes {
		if n.IsLeader() {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("%d leaders", count)
	}
}

func TestReplicationAndApply(t *testing.T) {
	c := newCluster(t, 3)
	leader := c.leader(t)
	for i := 0; i < 5; i++ {
		if err := leader.Propose([]byte(fmt.Sprintf("cmd-%d", i))); err != nil {
			t.Fatalf("Propose: %v", err)
		}
		c.sim.RunFor(100 * time.Millisecond)
	}
	c.sim.RunFor(time.Second)
	for id, got := range c.applied {
		if len(got) != 5 {
			t.Fatalf("node %s applied %d entries, want 5", id, len(got))
		}
		for i, v := range got {
			if v != fmt.Sprintf("cmd-%d", i) {
				t.Fatalf("node %s applied %q at %d", id, v, i)
			}
		}
	}
	if leader.Applied() != 5 {
		t.Fatalf("commit index = %d", leader.Applied())
	}
}

func TestFollowerRejectsPropose(t *testing.T) {
	c := newCluster(t, 3)
	leader := c.leader(t)
	for _, n := range c.nodes {
		if n == leader {
			continue
		}
		if err := n.Propose([]byte("x")); !errors.Is(err, ErrNotLeader) {
			t.Fatalf("want ErrNotLeader, got %v", err)
		}
	}
}

func TestLeaderFailover(t *testing.T) {
	c := newCluster(t, 5)
	leader := c.leader(t)
	if err := leader.Propose([]byte("before-crash")); err != nil {
		t.Fatalf("Propose: %v", err)
	}
	c.sim.RunFor(time.Second)

	leader.Stop()
	// A new leader emerges among the survivors.
	var newLeader *Node
	for round := 0; round < 200 && newLeader == nil; round++ {
		c.sim.RunFor(100 * time.Millisecond)
		for _, n := range c.nodes {
			if n != leader && n.IsLeader() {
				newLeader = n
				break
			}
		}
	}
	if newLeader == nil {
		t.Fatal("no failover leader elected")
	}
	if newLeader.Term() <= leader.Term() {
		t.Fatal("new leader must have a higher term")
	}
	// The committed entry survives and new proposals still commit.
	if err := newLeader.Propose([]byte("after-crash")); err != nil {
		t.Fatalf("Propose after failover: %v", err)
	}
	c.sim.RunFor(2 * time.Second)
	for id, n := range c.nodes {
		if n == leader {
			continue
		}
		got := c.applied[id]
		if len(got) != 2 || got[0] != "before-crash" || got[1] != "after-crash" {
			t.Fatalf("node %s applied %v", id, got)
		}
	}
}

func TestPartitionedMinorityCannotCommit(t *testing.T) {
	c := newCluster(t, 5)
	leader := c.leader(t)

	// Partition the leader with one follower (minority).
	var minority, majority []p2p.NodeID
	minority = append(minority, leader.id)
	for _, id := range c.ids {
		if id == leader.id {
			continue
		}
		if len(minority) < 2 {
			minority = append(minority, id)
		} else {
			majority = append(majority, id)
		}
	}
	c.net.Partition(minority, majority)

	before := leader.Applied()
	if err := leader.Propose([]byte("doomed")); err != nil {
		t.Fatalf("Propose: %v", err)
	}
	c.sim.RunFor(3 * time.Second)
	if leader.Applied() != before {
		t.Fatal("minority leader must not commit")
	}

	// The majority elects its own leader and makes progress.
	var majLeader *Node
	for _, id := range majority {
		if c.nodes[id].IsLeader() {
			majLeader = c.nodes[id]
		}
	}
	if majLeader == nil {
		t.Fatal("majority partition should elect a leader")
	}
	if err := majLeader.Propose([]byte("survives")); err != nil {
		t.Fatalf("Propose: %v", err)
	}
	c.sim.RunFor(time.Second)
	if majLeader.Applied() == 0 {
		t.Fatal("majority must commit")
	}

	// Heal: the old leader steps down and converges; the doomed entry is
	// replaced by the majority's log.
	c.net.Heal()
	c.sim.RunFor(5 * time.Second)
	if leader.IsLeader() {
		t.Fatal("stale leader must step down after heal")
	}
	for id := range c.nodes {
		got := c.applied[id]
		if len(got) == 0 || got[len(got)-1] != "survives" {
			t.Fatalf("node %s applied %v, want trailing 'survives'", id, got)
		}
		for _, v := range got {
			if v == "doomed" {
				t.Fatalf("node %s applied the uncommitted minority entry", id)
			}
		}
	}
}

func TestSingleNodeClusterCommitsInstantly(t *testing.T) {
	c := newCluster(t, 1)
	leader := c.leader(t)
	if err := leader.Propose([]byte("solo")); err != nil {
		t.Fatalf("Propose: %v", err)
	}
	if leader.LogLen() != 1 || leader.Applied() != 1 {
		t.Fatalf("log length=%d applied=%d", leader.LogLen(), leader.Applied())
	}
	c.sim.RunFor(100 * time.Millisecond)
	if got := c.applied[leader.id]; len(got) != 1 || got[0] != "solo" {
		t.Fatalf("applied %v", got)
	}
}

func TestStoppedNodeRefusesPropose(t *testing.T) {
	c := newCluster(t, 3)
	leader := c.leader(t)
	leader.Stop()
	if err := leader.Propose([]byte("x")); !errors.Is(err, ErrStopped) {
		t.Fatalf("want ErrStopped, got %v", err)
	}
}

func TestRoleString(t *testing.T) {
	if Follower.String() != "follower" || Candidate.String() != "candidate" || Leader.String() != "leader" {
		t.Fatal("role strings changed")
	}
}

func TestLogsConvergeUnderLoss(t *testing.T) {
	// With 10% message loss, committed prefixes must still converge.
	sim := simclock.NewSimulator()
	net := p2p.NewSimNetwork(sim, 3, p2p.WithLatency(10*time.Millisecond), p2p.WithDropRate(0.1))
	ids := []p2p.NodeID{"r0", "r1", "r2"}
	nodes := make(map[p2p.NodeID]*Node)
	applied := make(map[p2p.NodeID][]string)
	for i, id := range ids {
		id := id
		var peers []p2p.NodeID
		for _, other := range ids {
			if other != id {
				peers = append(peers, other)
			}
		}
		mux := p2p.NewMux()
		ep, err := net.Join(id, mux.Dispatch)
		if err != nil {
			t.Fatalf("Join: %v", err)
		}
		n := NewNode(id, peers, ep, sim, rand.New(rand.NewSource(int64(i+11))),
			Config{ElectionTimeout: 200 * time.Millisecond},
			func(idx uint64, data []byte) { applied[id] = append(applied[id], string(data)) })
		mux.Handle(MsgPrefix, n.HandleMessage)
		nodes[id] = n
		n.Start()
	}

	proposed := 0
	for round := 0; round < 300 && proposed < 10; round++ {
		sim.RunFor(100 * time.Millisecond)
		for _, n := range nodes {
			if n.IsLeader() {
				if err := n.Propose([]byte(fmt.Sprintf("op-%d", proposed))); err == nil {
					proposed++
				}
				break
			}
		}
	}
	sim.RunFor(5 * time.Second)
	if proposed < 10 {
		t.Fatalf("only proposed %d/10", proposed)
	}
	// All applied sequences must be consistent prefixes of each other.
	var longest []string
	for _, seq := range applied {
		if len(seq) > len(longest) {
			longest = seq
		}
	}
	for id, seq := range applied {
		for i, v := range seq {
			if v != longest[i] {
				t.Fatalf("node %s diverges at %d: %q vs %q", id, i, v, longest[i])
			}
		}
	}
}

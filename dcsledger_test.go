package dcsledger

import (
	"testing"
	"time"
)

// TestFacadeQuickstart exercises the public API exactly as README's
// quickstart does.
func TestFacadeQuickstart(t *testing.T) {
	alice := NewWallet("alice")
	bob := NewWallet("bob")
	cluster, err := NewPoWNetwork(4, map[Address]uint64{alice.Address(): 10_000})
	if err != nil {
		t.Fatalf("NewPoWNetwork: %v", err)
	}
	tx, err := alice.Transfer(bob.Address(), 500, 2)
	if err != nil {
		t.Fatalf("Transfer: %v", err)
	}
	if err := cluster.Nodes[0].SubmitTx(tx); err != nil {
		t.Fatalf("SubmitTx: %v", err)
	}
	cluster.Start()
	cluster.Sim.RunFor(3 * time.Minute)
	cluster.Stop()
	cluster.Sim.RunFor(30 * time.Second)

	if got, err := cluster.Nodes[0].Balance(bob.Address()); err != nil || got != 500 {
		t.Fatalf("bob = %d, want 500", got)
	}

	// SPV through the facade.
	light := NewSPVClient(cluster.Genesis.Header)
	if err := light.AddHeaders(cluster.Nodes[0].Chain().Headers(1, 1<<20)); err != nil {
		t.Fatalf("AddHeaders: %v", err)
	}
	proof, err := ProveTx(cluster.Nodes[0], tx.ID())
	if err != nil {
		t.Fatalf("ProveTx: %v", err)
	}
	if _, err := light.VerifyTx(proof); err != nil {
		t.Fatalf("VerifyTx: %v", err)
	}
}

func TestFacadeExperiments(t *testing.T) {
	ids := Experiments()
	if len(ids) != 18 {
		t.Fatalf("experiments = %d, want 18", len(ids))
	}
	table, err := RunExperiment("E11", 0.1)
	if err != nil {
		t.Fatalf("RunExperiment: %v", err)
	}
	if table.ID != "E11" || len(table.Rows) == 0 {
		t.Fatalf("table = %+v", table)
	}
	if _, err := RunExperiment("E99", 1); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestFacadeAdvise(t *testing.T) {
	rec, err := Advise(UseCase{})
	if err == nil {
		t.Fatalf("incomplete template must error, got %+v", rec)
	}
}

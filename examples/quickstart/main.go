// Command quickstart spins up a simulated 8-peer proof-of-work network, moves
// money, and verifies a payment with an SPV light client — the complete
// Figure-1 architecture in one file.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"dcsledger/internal/consensus"
	"dcsledger/internal/consensus/forkchoice"
	"dcsledger/internal/consensus/pow"
	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/incentive"
	"dcsledger/internal/node"
	"dcsledger/internal/wallet"
)

func main() {
	if err := run(); err != nil {
		log.Fatal("quickstart: ", err)
	}
}

func run() error {
	// 1. Two wallets; alice is funded at genesis.
	alice := wallet.FromSeed("alice")
	bob := wallet.FromSeed("bob")

	// 2. An 8-peer PoW network on a virtual clock: a 10-second block
	// interval simulates in milliseconds of wall time.
	cluster, err := node.NewCluster(node.ClusterConfig{
		N: 8,
		Engine: func(i int, key *cryptoutil.KeyPair) consensus.Engine {
			return pow.New(pow.Config{
				TargetInterval:    10 * time.Second,
				InitialDifficulty: 256,
				HashRate:          25.6,
			}, rand.New(rand.NewSource(int64(i)+7)))
		},
		ForkChoice: func() consensus.ForkChoice { return forkchoice.LongestChain{} },
		Alloc:      map[cryptoutil.Address]uint64{alice.Address(): 10_000},
		Rewards:    incentive.Schedule{InitialReward: 50},
		Seed:       1,
	})
	if err != nil {
		return err
	}
	fmt.Printf("network: %d peers, genesis %s\n", len(cluster.Nodes), cluster.Genesis.Hash().Short())

	// 3. Submit a few payments at different peers and let the network
	// mine for five virtual minutes.
	var lastTx cryptoutil.Hash
	for i := 0; i < 3; i++ {
		tx, err := alice.Transfer(bob.Address(), 100, 2)
		if err != nil {
			return err
		}
		if err := cluster.Nodes[i].SubmitTx(tx); err != nil {
			return err
		}
		lastTx = tx.ID()
	}
	cluster.Start()
	cluster.Sim.RunFor(5 * time.Minute)
	cluster.Stop()
	cluster.Sim.RunFor(30 * time.Second)

	n0 := cluster.Nodes[0]
	fmt.Printf("chain: height %d, %d blocks total, fork rate %.3f\n",
		n0.Chain().Height(), n0.Tree().Len()-1, cluster.ForkRate())
	fmt.Printf("consistency: common prefix %d across all peers\n", cluster.ConsistentPrefix())
	head, err := n0.HeadState()
	if err != nil {
		return err
	}
	fmt.Printf("balances: alice=%d bob=%d\n", head.Balance(alice.Address()), head.Balance(bob.Address()))

	// 4. SPV: a light client verifies bob's last payment from headers
	// alone (Section 2.2 of the paper).
	light := wallet.NewSPVClient(cluster.Genesis.Header)
	if err := light.AddHeaders(n0.Chain().Headers(1, 1<<20)); err != nil {
		return err
	}
	proof, err := wallet.ProveTx(n0.Chain(), lastTx)
	if err != nil {
		return err
	}
	conf, err := light.VerifyTx(proof)
	if err != nil {
		return err
	}
	fmt.Printf("spv: light client stores %d bytes of headers and verified tx %s with %d confirmations (proof: %d bytes)\n",
		light.StorageBytes(), lastTx.Short(), conf, proof.Size())
	return nil
}

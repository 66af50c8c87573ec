// Command crowdfunding runs a Blockchain 2.0 ÐApp (Section 3.2 of the paper). A
// founder deploys the crowdfund contract on a mining network, backers
// contribute before the deadline, and the founder claims once the goal
// is met — every step a gas-paying transaction, every read a free
// constant query.
//
//	go run ./examples/crowdfunding
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strconv"
	"time"

	"dcsledger/internal/consensus"
	"dcsledger/internal/consensus/forkchoice"
	"dcsledger/internal/consensus/pow"
	"dcsledger/internal/contract"
	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/incentive"
	"dcsledger/internal/node"
	"dcsledger/internal/state"
	"dcsledger/internal/vm"
	"dcsledger/internal/wallet"
)

func main() {
	if err := run(); err != nil {
		log.Fatal("crowdfunding: ", err)
	}
}

func run() error {
	founder := wallet.FromSeed("founder")
	backers := []*wallet.Wallet{
		wallet.FromSeed("backer-1"),
		wallet.FromSeed("backer-2"),
		wallet.FromSeed("backer-3"),
	}
	alloc := map[cryptoutil.Address]uint64{founder.Address(): 10_000}
	for _, b := range backers {
		alloc[b.Address()] = 10_000
	}

	cluster, err := node.NewCluster(node.ClusterConfig{
		N: 4,
		Engine: func(i int, key *cryptoutil.KeyPair) consensus.Engine {
			return pow.New(pow.Config{
				TargetInterval:    5 * time.Second,
				InitialDifficulty: 128,
				HashRate:          25.6,
			}, rand.New(rand.NewSource(int64(i)+70)))
		},
		ForkChoice: func() consensus.ForkChoice { return forkchoice.LongestChain{} },
		Executor:   func() state.Executor { return contract.NewExecutor(contract.NewRegistry()) },
		Alloc:      alloc,
		Rewards:    incentive.Schedule{InitialReward: 10},
		Seed:       2,
	})
	if err != nil {
		return err
	}
	cluster.Start()
	submit := func(w *wallet.Wallet, build func() error) error {
		if err := build(); err != nil {
			return err
		}
		cluster.Sim.RunFor(30 * time.Second) // a few blocks
		return nil
	}
	n0 := cluster.Nodes[0]

	// 1. Deploy the crowdfund ÐApp.
	deploy, err := founder.Deploy(contract.DeployPayload("crowdfund"), 0, 100, 100_000)
	if err != nil {
		return err
	}
	if err := submit(founder, func() error { return n0.SubmitTx(deploy) }); err != nil {
		return err
	}
	contractAddr := contractAddress(n0, deploy.ID())
	fmt.Printf("contract deployed at %s\n", contractAddr.Short())

	// 2. Initialize: goal 1000, deadline 10 virtual minutes from now.
	deadline := cluster.Sim.Now().Add(10 * time.Minute).UnixNano()
	initTx, err := founder.Invoke(contractAddr,
		contract.EncodeCall("init", "1000", strconv.FormatInt(deadline, 10)), 0, 50, 100_000)
	if err != nil {
		return err
	}
	if err := submit(founder, func() error { return n0.SubmitTx(initTx) }); err != nil {
		return err
	}

	// 3. Backers contribute value-carrying invocations.
	for i, b := range backers {
		amount := uint64(400 + 100*i)
		tx, err := b.Invoke(contractAddr, contract.EncodeCall("contribute"), amount, 20, 100_000)
		if err != nil {
			return err
		}
		if err := submit(b, func() error { return cluster.Nodes[i%4].SubmitTx(tx) }); err != nil {
			return err
		}
		fmt.Printf("backer %d contributed %d; raised so far: %s\n", i+1, amount, query(n0, contractAddr, "raised"))
	}

	// 4. Wait out the deadline, then the founder claims.
	cluster.Sim.RunFor(10 * time.Minute)
	before, err := n0.Balance(founder.Address())
	if err != nil {
		return err
	}
	claim, err := founder.Invoke(contractAddr, contract.EncodeCall("claim"), 0, 20, 100_000)
	if err != nil {
		return err
	}
	if err := submit(founder, func() error { return n0.SubmitTx(claim) }); err != nil {
		return err
	}
	cluster.Stop()
	cluster.Sim.RunFor(time.Minute)
	after, err := n0.Balance(founder.Address())
	if err != nil {
		return err
	}
	fmt.Printf("goal %s reached with %s raised; founder claimed %+d\n",
		query(n0, contractAddr, "goal"), query(n0, contractAddr, "raised"),
		int64(after)-int64(before))
	fmt.Printf("constant queries cost no gas — the paper's free say() call (§2.5)\n")
	return nil
}

// contractAddress finds the deploy receipt's contract address by
// re-deriving it from the transaction (deterministic derivation).
func contractAddress(n *node.Node, deployID cryptoutil.Hash) cryptoutil.Address {
	bh, idx, ok, err := n.Chain().FindTx(deployID)
	if err != nil {
		log.Fatal(err)
	}
	if !ok {
		log.Fatal("deploy tx not committed — mine longer")
	}
	b, _ := n.Tree().Get(bh)
	tx := b.Txs[idx]
	return vm.ContractAddress(tx.From, tx.Nonce)
}

func query(n *node.Node, addr cryptoutil.Address, fn string, args ...string) string {
	ex := contract.NewExecutor(contract.NewRegistry())
	out, err := ex.Query(n.State(), addr, cryptoutil.ZeroAddress, fn, args...)
	if err != nil {
		return "(" + err.Error() + ")"
	}
	return string(out)
}

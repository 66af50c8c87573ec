package forkchoice

import (
	"sync/atomic"

	"dcsledger/internal/consensus"
	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/obs"
	"dcsledger/internal/store"
)

// Instrumented decorates any ForkChoice with pipeline observability:
// every Choose is observed as a fork_choice stage (latency histogram and
// span, whichever Obs carries), and tip switches (the decision changing
// from the previous call's answer) are counted. A bare
// &Instrumented{Inner: GHOST{}} is a transparent pass-through — so the
// same wrapper serves the daemon (histogram + /metrics), the benchmark
// harness (tracer), and tests.
type Instrumented struct {
	// Inner is the wrapped branch-selection rule.
	Inner consensus.ForkChoice
	// Obs observes one fork_choice per Choose (zero value = off).
	Obs obs.Observer

	last     atomic.Value // cryptoutil.Hash: previous Choose answer
	switches atomic.Uint64
}

var _ consensus.ForkChoice = (*Instrumented)(nil)

// Name implements consensus.ForkChoice, delegating to the wrapped rule
// so experiment labels stay stable under instrumentation.
func (i *Instrumented) Name() string { return i.Inner.Name() }

// Choose implements consensus.ForkChoice: runs the wrapped rule, records
// its latency, and counts a switch when the chosen tip differs from the
// previous successful call's.
func (i *Instrumented) Choose(tree *store.BlockTree) (cryptoutil.Hash, error) {
	sw := obs.StartTimer()
	tip, err := i.Inner.Choose(tree)
	if err != nil {
		return tip, err
	}
	dur := sw.Elapsed()
	switched := uint64(0)
	if prev, ok := i.last.Load().(cryptoutil.Hash); ok && prev != tip {
		i.switches.Add(1)
		switched = 1
	}
	i.last.Store(tip)
	i.Obs.Observe(obs.StageForkChoice, sw.Start(), dur, obs.At{N: switched})
	return tip, nil
}

// Switches returns how many times the decision changed tips across
// successful Choose calls — the fork-churn signal behind the paper's
// consistency-vs-scalability trade-off (stale branches under short
// block intervals).
func (i *Instrumented) Switches() uint64 { return i.switches.Load() }

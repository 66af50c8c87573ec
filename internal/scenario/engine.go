package scenario

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"dcsledger/internal/p2p"
	"dcsledger/internal/simclock"
)

// maxViolations bounds the report's violation list; the overflow is
// summarized so a pathological run cannot grow the report without
// bound (and fingerprints stay comparable).
const maxViolations = 50

// family is a consensus family the engine can drive. The engine owns
// the simulator, the network, the script schedule, and the report; the
// family owns its node set and family-specific invariants.
type family interface {
	// build constructs the node set on e.Sim/e.Net; node i joins as
	// p2p.NodeName(i).
	build(e *Engine) error
	// submit injects workload unit k at a live node.
	submit(e *Engine, k uint64)
	// apply executes a lifecycle or Byzantine action.
	apply(e *Engine, a Action) error
	// sweep runs the periodic invariant checks and finality advance.
	sweep(e *Engine)
	// quiesce disarms Byzantine actors at the end of the scripted
	// window so the drain converges.
	quiesce(e *Engine)
	// finish writes the final metrics into e.Report.
	finish(e *Engine)
}

// Engine runs one scenario. Construct via Run.
type Engine struct {
	Scenario Scenario
	Sim      *simclock.Simulator
	Net      *p2p.SimNetwork
	Report   *Report

	fam       family
	start     time.Time
	live      []bool
	spammers  map[int]*spammer
	submitted uint64
	overflow  int // violations past maxViolations
}

// Run executes the scenario to completion and returns its report. The
// run is deterministic: identical Scenario values (including Seed)
// produce bit-identical reports.
func Run(sc Scenario) (*Report, error) {
	sc, err := sc.withDefaults()
	if err != nil {
		return nil, err
	}
	switch sc.Family {
	case FamilyPBFT:
		return run(sc, newPBFTFamily())
	case FamilyRaft:
		return run(sc, newRaftFamily())
	}
	return run(sc, newPowFamily())
}

// run drives fam through sc, whose defaults are already applied.
func run(sc Scenario, fam family) (*Report, error) {
	e := &Engine{
		Scenario: sc,
		Sim:      simclock.NewSimulator(),
		Report: &Report{
			Scenario: sc.Name,
			Family:   sc.Family,
			N:        sc.N,
			Seed:     sc.Seed,
		},
		fam:      fam,
		live:     make([]bool, sc.N),
		spammers: make(map[int]*spammer),
	}
	for i := range e.live {
		e.live[i] = true
	}
	opts := []p2p.SimOption{p2p.WithLatency(sc.Latency)}
	if sc.Jitter > 0 {
		opts = append(opts, p2p.WithJitter(sc.Jitter))
	}
	if sc.DropRate > 0 {
		opts = append(opts, p2p.WithDropRate(sc.DropRate))
	}
	e.Net = p2p.NewSimNetwork(e.Sim, sc.Seed, opts...)
	e.start = e.Sim.Now()

	if err := e.fam.build(e); err != nil {
		return nil, err
	}

	// Script: sorted by time, stable so equal-time steps keep their
	// declared order.
	steps := append([]Step(nil), sc.Steps...)
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].At < steps[j].At })
	var stepErr error
	for _, st := range steps {
		st := st
		e.Sim.At(e.start.Add(st.At), func() {
			if stepErr != nil {
				return
			}
			if err := e.applyStep(st.Action); err != nil {
				stepErr = fmt.Errorf("scenario: step %q at %v: %w", st.Action.describe(), st.At, err)
				return
			}
			e.Report.StepLog = append(e.Report.StepLog,
				fmt.Sprintf("t=%s %s", st.At, st.Action.describe()))
		})
	}

	// Workload and invariant sweeps.
	if sc.SubmitEvery > 0 {
		e.every(sc.SubmitEvery, func() bool { return e.Elapsed() >= sc.Duration }, func() {
			e.fam.submit(e, e.submitted)
			e.submitted++
		})
	}
	e.every(sc.CheckEvery, func() bool { return e.Elapsed() >= sc.Duration+sc.Drain }, func() {
		e.fam.sweep(e)
	})

	e.Sim.RunFor(sc.Duration)
	if stepErr != nil {
		return nil, stepErr
	}
	for _, s := range e.spammers {
		s.active = false
	}
	e.fam.quiesce(e)
	e.Sim.RunFor(sc.Drain)
	e.fam.sweep(e)
	if e.overflow > 0 {
		e.Report.Violations = append(e.Report.Violations,
			fmt.Sprintf("... and %d more violations", e.overflow))
	}
	e.Report.Submitted = e.submitted
	e.Report.Net = e.Net.Stats()
	e.fam.finish(e)
	if e.Report.Committed > 0 {
		e.Report.Throughput = float64(e.Report.Committed) / sc.Duration.Seconds()
		e.Report.MsgsPerCommit = float64(e.Report.Net.Sent) / float64(e.Report.Committed)
	}
	return e.Report, nil
}

// Elapsed is the virtual time since the scenario started.
func (e *Engine) Elapsed() time.Duration { return e.Sim.Now().Sub(e.start) }

// Live lists the indices currently on the network, ascending.
func (e *Engine) Live() []int {
	out := make([]int, 0, len(e.live))
	for i, ok := range e.live {
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// note records family-level step evidence in the report.
func (e *Engine) note(format string, args ...any) {
	e.Report.Notes = append(e.Report.Notes, fmt.Sprintf(format, args...))
}

// violate records one invariant violation, bounded by maxViolations.
func (e *Engine) violate(format string, args ...any) {
	if len(e.Report.Violations) >= maxViolations {
		e.overflow++
		return
	}
	e.Report.Violations = append(e.Report.Violations, fmt.Sprintf(format, args...))
}

// every schedules fn each period until stop reports true (checked
// before each firing).
func (e *Engine) every(period time.Duration, stop func() bool, fn func()) {
	var tick func()
	tick = func() {
		if stop() {
			return
		}
		fn()
		e.Sim.After(period, tick)
	}
	e.Sim.After(period, tick)
}

// spammer is one node's junk source: its own rng stream and payload
// size, switched off by a later Spam step or at the end of the script.
type spammer struct {
	active bool
	size   int
	rng    *rand.Rand
}

// spam services a Spam action for any family: while the spammer is on
// and its node on the network, fire runs every Interval.
func (e *Engine) spam(act Spam, fire func(s *spammer)) {
	if !act.On {
		if s := e.spammers[act.Node]; s != nil {
			s.active = false
		}
		return
	}
	if act.Interval <= 0 {
		act.Interval = time.Second
	}
	if act.Size <= 0 {
		act.Size = 512
	}
	s := &spammer{active: true, size: act.Size, rng: e.Net.RNGStream(fmt.Sprintf("spam/%d", act.Node))}
	e.spammers[act.Node] = s
	e.every(act.Interval,
		func() bool { return !s.active || e.Elapsed() >= e.Scenario.Duration },
		func() {
			if e.live[act.Node] {
				fire(s)
			}
		})
}

func (e *Engine) applyStep(a Action) error {
	idOf := func(i int) (p2p.NodeID, error) {
		if i < 0 || i >= e.Scenario.N {
			return "", fmt.Errorf("node index %d out of range [0,%d)", i, e.Scenario.N)
		}
		return p2p.NodeName(i), nil
	}
	switch act := a.(type) {
	case Partition:
		groups := make([][]p2p.NodeID, len(act.Groups))
		for gi, g := range act.Groups {
			for _, i := range g {
				id, err := idOf(i)
				if err != nil {
					return err
				}
				groups[gi] = append(groups[gi], id)
			}
		}
		e.Net.Partition(groups...)
		return nil
	case BlockLink:
		from, err := idOf(act.From)
		if err != nil {
			return err
		}
		to, err := idOf(act.To)
		if err != nil {
			return err
		}
		e.Net.BlockLink(from, to)
		return nil
	case Heal:
		e.Net.Heal()
		return nil
	case Leave:
		if _, err := idOf(act.Node); err != nil {
			return err
		}
		if !e.live[act.Node] {
			return fmt.Errorf("node %d already away", act.Node)
		}
		if err := e.fam.apply(e, a); err != nil {
			return err
		}
		e.live[act.Node] = false
		return nil
	case Rejoin:
		if _, err := idOf(act.Node); err != nil {
			return err
		}
		if e.live[act.Node] {
			return fmt.Errorf("node %d is not away", act.Node)
		}
		if err := e.fam.apply(e, a); err != nil {
			return err
		}
		e.live[act.Node] = true
		return nil
	case Restart:
		if _, err := idOf(act.Node); err != nil {
			return err
		}
		if err := e.fam.apply(e, a); err != nil {
			return err
		}
		e.live[act.Node] = true
		return nil
	default:
		return e.fam.apply(e, a)
	}
}

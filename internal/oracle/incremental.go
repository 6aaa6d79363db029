package oracle

import (
	"errors"
	"fmt"
	"reflect"

	"mecoffload/internal/core"
	"mecoffload/internal/mec"
	"mecoffload/internal/rnd"
	"mecoffload/internal/sim"
	"mecoffload/internal/workload"
)

// ErrNoCleanHits reports that an incremental diff passed decision parity
// but the trace never produced a clean component, so the cache went
// unexercised. The fuzz harness tolerates it (arbitrary inputs need not
// repeat a component); the curated tests treat it as a failure.
var ErrNoCleanHits = errors.New("oracle: incremental run had no clean hits")

// incRun executes one DynamicRR simulation and returns the result, the
// per-slot reward vector, and the scheduler (for its incremental
// counters). ref selects the reference solve; zero runs the production
// path.
func incRun(n *mec.Network, reqs []*mec.Request, seed int64, cfg sim.Config, dopts sim.DynamicRROptions, ref core.Reference) (*core.Result, []float64, *sim.DynamicRR, error) {
	sched, err := sim.NewDynamicRR(dopts)
	if err != nil {
		return nil, nil, nil, err
	}
	sched.Inc().UseReference(ref)
	eng, err := sim.NewEngine(n, workload.Clone(reqs), rnd.New(seed, "engine"), cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	eng.SetStepChecker(EngineChecker())
	res, err := eng.Run(sched)
	if err != nil {
		return nil, nil, nil, err
	}
	return res, eng.SlotRewards(), sched, nil
}

// diffRuns compares two runs decision for decision.
func diffRuns(aName, bName string, a, b *core.Result, aRew, bRew []float64) error {
	if a.TotalReward != b.TotalReward {
		return fmt.Errorf("oracle: %s total reward %v, %s %v", aName, a.TotalReward, bName, b.TotalReward)
	}
	if !reflect.DeepEqual(aRew, bRew) {
		return fmt.Errorf("oracle: slot reward vectors diverge between %s and %s", aName, bName)
	}
	for j := range a.Decisions {
		if !reflect.DeepEqual(a.Decisions[j], b.Decisions[j]) {
			return fmt.Errorf("oracle: decision %d diverges between %s and %s: %+v vs %+v",
				j, aName, bName, a.Decisions[j], b.Decisions[j])
		}
	}
	return nil
}

// DiffIncrementalFull is the incremental scheduler's correctness oracle:
// it runs DynamicRR over the same workload twice — once on the production
// path, where the dirty-component cache replays clean components'
// decisions, once on the core.NoReuse reference that re-solves every
// component every slot (local-ratio fast path on in both) — and requires
// the two runs to agree decision for decision: identical admission
// tables, identical per-slot reward vectors, identical totals. The
// engine's invariant checker stays installed in both runs. It also
// demands the production run actually exercised the cache (CleanHits >
// 0): a trace where every component is always dirty proves nothing.
//
// dopts carries the scheduler configuration both runs share (workers,
// rounding denominator, bandit shape).
func DiffIncrementalFull(n *mec.Network, reqs []*mec.Request, seed int64, cfg sim.Config, dopts sim.DynamicRROptions) error {
	full, fullRew, _, err := incRun(n, reqs, seed, cfg, dopts, core.NoReuse)
	if err != nil {
		return fmt.Errorf("oracle: full re-solve run: %w", err)
	}
	inc, incRew, sched, err := incRun(n, reqs, seed, cfg, dopts, 0)
	if err != nil {
		return fmt.Errorf("oracle: incremental run: %w", err)
	}
	if err := diffRuns("full", "incremental", full, inc, fullRew, incRew); err != nil {
		return err
	}
	if st := sched.IncStats(); st.CleanHits == 0 {
		return fmt.Errorf("%w (%d dirty solves): the trace does not exercise the cache", ErrNoCleanHits, st.DirtySolves)
	}
	return nil
}

// DiffLocalRatioLP is the fast path's correctness oracle: it runs
// DynamicRR over the same workload twice — once on the core.NoReuse|
// core.LPOnly reference that solves every component with the
// warm-started LP-PT every slot, once on the production path, where the
// local-ratio certification admits components combinatorially — and
// requires decision-for-decision agreement.
//
// The trace must be *all-certified*: every component the production run
// examines must pass certification (FastFallback == 0, FastPath > 0), and
// the function errors otherwise. The restriction is load-bearing, not
// cosmetic: a certified component provably has a unique LP optimum, so
// parity there is unconditional, but a certified solve stores no basis
// into the warm cache — after the first fallback the two runs' warm
// caches can differ, and a later degenerate LP may legitimately return
// different optimal vertices. Parity of certified decisions is exactly
// the contract the fast path claims ("only fire when it provably matches
// LP-PT"), and this oracle pins it end to end.
//
// Both runs use RoundingDenominator 1 so admission is deterministic;
// fractional rounding would leave residual passes whose halved slot grid
// rarely certifies.
func DiffLocalRatioLP(n *mec.Network, reqs []*mec.Request, seed int64, cfg sim.Config) error {
	opts := sim.DynamicRROptions{RoundingDenominator: 1}
	lp, lpRew, _, err := incRun(n, reqs, seed, cfg, opts, core.NoReuse|core.LPOnly)
	if err != nil {
		return fmt.Errorf("oracle: LP-PT run: %w", err)
	}
	lr, lrRew, sched, err := incRun(n, reqs, seed, cfg, opts, 0)
	if err != nil {
		return fmt.Errorf("oracle: local-ratio run: %w", err)
	}
	st := sched.IncStats()
	if st.FastFallback != 0 {
		return fmt.Errorf("oracle: trace is not all-certified: %d components fell back to the LP (fastPath=%d)", st.FastFallback, st.FastPath)
	}
	if st.FastPath == 0 {
		return fmt.Errorf("oracle: local-ratio run certified no component: the trace does not exercise the fast path")
	}
	return diffRuns("lp-pt", "local-ratio", lp, lr, lpRew, lrRew)
}

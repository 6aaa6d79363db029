package oracle

import (
	"fmt"

	"mecoffload/internal/core"
	"mecoffload/internal/mec"
	"mecoffload/internal/rnd"
	"mecoffload/internal/sim"
	"mecoffload/internal/workload"
)

// DiffParallelSequential is the parallel pipeline's determinism oracle
// for the online path: it runs DynamicRR over the same workload twice —
// once with the per-slot LP solved on a single worker, once with the
// component solves fanned out over `workers` goroutines — and requires
// the two runs to agree decision for decision: identical admission
// tables, identical per-slot reward vectors, identical totals. The
// engine's invariant checker stays installed in both runs, so the
// parallel run also satisfies every conservation law, not merely parity
// with the sequential one.
func DiffParallelSequential(n *mec.Network, reqs []*mec.Request, seed int64, cfg sim.Config, workers int) error {
	if workers < 2 {
		return fmt.Errorf("oracle: parallel diff needs workers >= 2, got %d", workers)
	}
	run := func(w int) (*core.Result, []float64, error) {
		res, rew, _, err := incRun(n, reqs, seed, cfg, sim.DynamicRROptions{Workers: w}, 0)
		return res, rew, err
	}
	seq, seqRew, err := run(1)
	if err != nil {
		return fmt.Errorf("oracle: sequential run: %w", err)
	}
	par, parRew, err := run(workers)
	if err != nil {
		return fmt.Errorf("oracle: parallel run (workers=%d): %w", workers, err)
	}
	return diffRuns("workers=1", fmt.Sprintf("workers=%d", workers), seq, par, seqRew, parRew)
}

// DiffParallelSequentialOffline is the offline counterpart: one
// core.Appro and one core.Heu run per worker count over cloned requests
// and identical rngs. Beyond decision parity it requires the fractional
// LP bound to match exactly — the per-component objectives of the
// decomposed solve must sum to the monolithic optimum, so any drift there
// means the decomposition split a constraint it should not have.
func DiffParallelSequentialOffline(n *mec.Network, reqs []*mec.Request, seed int64, workers int) error {
	if workers < 2 {
		return fmt.Errorf("oracle: parallel diff needs workers >= 2, got %d", workers)
	}
	algos := []struct {
		name string
		run  func(w int) (*core.Result, error)
	}{
		{"Appro", func(w int) (*core.Result, error) {
			return core.Appro(n, workload.Clone(reqs), rnd.New(seed, "appro"), core.ApproOptions{
				Warm:    core.NewWarmCache(),
				Workers: w,
			})
		}},
		{"Heu", func(w int) (*core.Result, error) {
			return core.Heu(n, workload.Clone(reqs), rnd.New(seed, "heu"), core.HeuOptions{
				Warm:    core.NewWarmCache(),
				Workers: w,
			})
		}},
	}
	for _, a := range algos {
		seq, err := a.run(1)
		if err != nil {
			return fmt.Errorf("oracle: sequential %s: %w", a.name, err)
		}
		par, err := a.run(workers)
		if err != nil {
			return fmt.Errorf("oracle: parallel %s (workers=%d): %w", a.name, workers, err)
		}
		if seq.ExpectedLPBound != par.ExpectedLPBound {
			return fmt.Errorf("oracle: %s workers=1 LP bound %v, workers=%d %v", a.name, seq.ExpectedLPBound, workers, par.ExpectedLPBound)
		}
		if err := diffRuns(a.name+" workers=1", fmt.Sprintf("%s workers=%d", a.name, workers), seq, par, nil, nil); err != nil {
			return err
		}
	}
	return nil
}

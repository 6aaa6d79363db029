package oracle

import (
	"testing"

	"mecoffload/internal/sim"
	"mecoffload/internal/workload"
)

// TestDiffParallelSequentialOnline drives DynamicRR over a congested
// online workload with the per-slot LP solved sequentially and on 2- and
// 8-worker pools, requiring bit-identical decisions. Under the -race CI
// job this also races the worker pool against the warm cache and the
// dirty-component cache.
func TestDiffParallelSequentialOnline(t *testing.T) {
	n := oracleNet(t, 8, 51)
	reqs := oracleWorkload(t, workload.Config{
		NumRequests:    60,
		NumStations:    8,
		ArrivalHorizon: 30,
	}, 52)
	for _, w := range []int{2, 8} {
		if err := DiffParallelSequential(n, reqs, 53, sim.Config{Horizon: 50}, w); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDiffParallelSequentialOffline checks the offline Appro and Heu
// paths: the decomposed LP's summed component objectives must equal the
// single-worker bound exactly, and every rounding decision must match.
func TestDiffParallelSequentialOffline(t *testing.T) {
	n := oracleNet(t, 8, 61)
	reqs := oracleWorkload(t, workload.Config{
		NumRequests: 80,
		NumStations: 8,
	}, 62)
	for _, w := range []int{2, 8} {
		if err := DiffParallelSequentialOffline(n, reqs, 63, w); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDiffParallelSequentialRejectsSerial pins the guard: a "parallel"
// diff against one worker would vacuously pass, so the oracle refuses it.
func TestDiffParallelSequentialRejectsSerial(t *testing.T) {
	n := oracleNet(t, 4, 71)
	reqs := oracleWorkload(t, workload.Config{NumRequests: 5, NumStations: 4}, 72)
	if err := DiffParallelSequential(n, reqs, 73, sim.Config{Horizon: 5}, 1); err == nil {
		t.Fatal("workers=1 diff should be rejected")
	}
	if err := DiffParallelSequentialOffline(n, reqs, 73, 1); err == nil {
		t.Fatal("workers=1 offline diff should be rejected")
	}
}

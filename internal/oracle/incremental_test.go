package oracle

import (
	"errors"
	"math/rand"
	"testing"

	"mecoffload/internal/dist"
	"mecoffload/internal/graph"
	"mecoffload/internal/mec"
	"mecoffload/internal/sim"
	"mecoffload/internal/topology"
	"mecoffload/internal/workload"
)

// TestDiffIncrementalFull drives DynamicRR over the periodic island
// trace twice — full re-solve every slot vs the dirty-component cache —
// and requires bit-identical decisions, slot rewards, and totals. The
// periodicity matters: wave w's components have exactly the signature
// wave 0 cached (same station, same residual capacity, same share cap,
// same demand distribution, and position-space entries erase the new
// request ids), so every wave after the first reuses cached decisions
// deterministically — the diff fails if none is reused. Rounding
// denominator 1 keeps admission deterministic so the waves stay aligned.
func TestDiffIncrementalFull(t *testing.T) {
	net, reqs := certifiableScenario(t, 6, 4)
	err := DiffIncrementalFull(net, reqs, 83, sim.Config{Horizon: 50},
		sim.DynamicRROptions{RoundingDenominator: 1})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDiffIncrementalFullParallel repeats the incremental diff with the
// component solves fanned out over a worker pool in both runs, so the
// cache's sequential clean-check composes with the parallel dirty
// solves. Under the -race CI job this also races the fast-path counters
// and the warm cache against the pool.
func TestDiffIncrementalFullParallel(t *testing.T) {
	net, reqs := certifiableScenario(t, 6, 4)
	err := DiffIncrementalFull(net, reqs, 93, sim.Config{Horizon: 50},
		sim.DynamicRROptions{RoundingDenominator: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDiffIncrementalGenericWorkload runs the incremental diff over
// generated workloads with the production rounding denominator. Decision
// parity must hold unconditionally; whether a trace happens to produce
// clean hits depends on the draw, so ErrNoCleanHits is tolerated (the
// periodic tests above pin guaranteed reuse). The rows:
//
//   - congested: 80 requests over 25 slots on 8 stations.
//   - bench-shape: the serving benchmark's shape — the connected
//     20-station topology, about 18 Poisson arrivals per slot, so the
//     candidate graph is one or two large components that are dirty
//     almost every slot and the fast path rarely certifies.
func TestDiffIncrementalGenericWorkload(t *testing.T) {
	cases := []struct {
		name           string
		stations       int
		requests, slot int
		poisson        bool
		horizon        int
	}{
		{name: "congested", stations: 8, requests: 80, slot: 25, horizon: 60},
		{name: "bench-shape", stations: 20, requests: 360, slot: 20, poisson: true, horizon: 40},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := oracleNet(t, tc.stations, 81)
			reqs := oracleWorkload(t, workload.Config{
				NumRequests:    tc.requests,
				NumStations:    tc.stations,
				ArrivalHorizon: tc.slot,
			}, 82)
			if tc.poisson {
				if err := workload.ApplyArrivals(reqs, workload.PoissonArrivals{}, tc.slot, rand.New(rand.NewSource(84))); err != nil {
					t.Fatal(err)
				}
			}
			err := DiffIncrementalFull(n, reqs, 83, sim.Config{Horizon: tc.horizon}, sim.DynamicRROptions{})
			if err != nil && !errors.Is(err, ErrNoCleanHits) {
				t.Fatal(err)
			}
		})
	}
}

// certifiableScenario builds the all-certified trace DiffLocalRatioLP
// requires: `stations` disconnected single-station islands (a request's
// access station is its only delay-feasible candidate), each with 3000
// MHz capacity, and one single-outcome request per station with rate 60
// MB/s. At the default 1000 MHz slot grid and C_unit 20, a request's ER
// at slot 1 is its full reward ((3000-1000)/20 = 100 >= 60) while slot 2
// cuts it to zero ((3000-2000)/20 = 50 < 60), so the per-request argmax
// is strictly unique; with one request per station the one-hot point is
// trivially capacity-feasible. Arrivals are staggered so a departing
// stream frees its station before the next wave, and each wave repeats
// the previous wave's station/distribution pairing exactly — the trace
// therefore also drives the incremental cache deterministically: wave
// w's component signatures are bit-identical to wave 0's.
func certifiableScenario(t *testing.T, stations, waves int) (*mec.Network, []*mec.Request) {
	t.Helper()
	g := graph.New(stations)
	nodes := make([]topology.Node, stations)
	bs := make([]mec.BaseStation, stations)
	for i := 0; i < stations; i++ {
		nodes[i] = topology.Node{X: float64(i) * 0.1, Y: 0}
		bs[i] = mec.BaseStation{CapacityMHz: 3000, SpeedFactor: 1}
	}
	net, err := mec.NewNetwork(mec.NetworkConfig{
		Stations: bs,
		Topo:     &topology.Topology{Graph: g, Nodes: nodes},
	})
	if err != nil {
		t.Fatal(err)
	}
	var reqs []*mec.Request
	for w := 0; w < waves; w++ {
		for i := 0; i < stations; i++ {
			id := w*stations + i
			// Reward depends on the station only: wave w's request on
			// station i is distribution-identical to wave 0's, so the
			// component signature repeats across waves.
			d, err := dist.NewRateReward([]dist.Outcome{
				{Rate: 60, Prob: 1, Reward: float64(100 + 13*i%200)},
			})
			if err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, &mec.Request{
				ID:            id,
				ArrivalSlot:   w * 8,
				AccessStation: i,
				Tasks:         []mec.Task{{Name: "render", OutputKb: 100, WorkMS: 30}},
				DeadlineMS:    200,
				DurationSlots: 5,
				Dist:          d,
			})
		}
	}
	return net, reqs
}

// TestDiffLocalRatioLP pins the fast path's LP parity on an all-certified
// trace: every component the local-ratio run examines must certify
// (FastFallback == 0) and the resulting decisions must match the
// warm-started LP-PT run bit for bit.
func TestDiffLocalRatioLP(t *testing.T) {
	net, reqs := certifiableScenario(t, 6, 3)
	if err := DiffLocalRatioLP(net, reqs, 101, sim.Config{Horizon: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestDiffLocalRatioLPRejectsUncertified pins the oracle's guard: a
// contended generic workload falls back to the LP somewhere, and the diff
// must refuse to vouch for such a trace rather than compare runs whose
// warm caches may have diverged.
func TestDiffLocalRatioLPRejectsUncertified(t *testing.T) {
	n := oracleNet(t, 4, 111)
	reqs := oracleWorkload(t, workload.Config{
		NumRequests:    40,
		NumStations:    4,
		ArrivalHorizon: 10,
	}, 112)
	err := DiffLocalRatioLP(n, reqs, 113, sim.Config{Horizon: 30})
	if err == nil {
		t.Fatal("expected the uncertified trace to be rejected")
	}
}

// FuzzDirtySet fuzzes the incremental scheduler's parity contract over
// generated topologies and workloads: any (stations, requests, horizon,
// seed) draw within the envelope must produce identical decisions with
// and without the dirty-component cache. Traces that never go clean pass
// vacuously (ErrNoCleanHits is tolerated — arbitrary draws need not
// repeat a component); the curated seeds all exercise the cache.
func FuzzDirtySet(f *testing.F) {
	f.Add(int64(83), uint8(8), uint8(80), uint8(25))
	f.Add(int64(7), uint8(4), uint8(30), uint8(10))
	f.Add(int64(42), uint8(6), uint8(50), uint8(15))
	f.Add(int64(1), uint8(2), uint8(12), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, stations, requests, horizon uint8) {
		nSt := int(stations)%12 + 1
		nReq := int(requests)%100 + 1
		hor := int(horizon)%30 + 1
		n := oracleNet(t, nSt, seed)
		reqs := oracleWorkload(t, workload.Config{
			NumRequests:    nReq,
			NumStations:    nSt,
			ArrivalHorizon: hor,
		}, seed+1)
		err := DiffIncrementalFull(n, reqs, seed+2, sim.Config{Horizon: hor + 20}, sim.DynamicRROptions{})
		if err != nil && !errors.Is(err, ErrNoCleanHits) {
			t.Fatal(err)
		}
	})
}

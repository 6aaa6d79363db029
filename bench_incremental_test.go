package mecoffload

import (
	"math/rand"
	"testing"

	"mecoffload/internal/core"
	"mecoffload/internal/dist"
	"mecoffload/internal/graph"
	"mecoffload/internal/mec"
	"mecoffload/internal/serve"
	"mecoffload/internal/sim"
	"mecoffload/internal/topology"
)

// benchPeriodicSpecs builds the steady-wave arrival burst for the
// incremental benchmark: one two-outcome request per island (rates 60
// and 80 MB/s, rewards varying by island only), accessing the island's
// 3000 MHz head station. Each island is its own LP component; with a
// one-slot hold and denominator-1 rounding the trace reaches a fixed
// point where every slot re-presents bit-identical component signatures
// — the high-clean-fraction regime the dirty-component cache is built
// for. The rate-80 outcome fits only the head station's spare capacity,
// so the head strictly dominates every other placement and the
// local-ratio certificate holds too.
func benchPeriodicSpecs(islands, per int) []serve.RequestSpec {
	specs := make([]serve.RequestSpec, islands)
	for i := range specs {
		specs[i] = serve.RequestSpec{
			AccessStation: i * per,
			DeadlineMS:    200,
			DurationSlots: 1,
			Outcomes: []serve.OutcomeSpec{
				{RateMBs: 60, Prob: 0.5, Reward: float64(100 + 13*i)},
				{RateMBs: 80, Prob: 0.5, Reward: float64(150 + 13*i)},
			},
		}
	}
	return specs
}

// BenchmarkIncrementalServeSlot measures one daemon scheduling slot on a
// high-clean-fraction periodic trace. The trace repeats the same wave
// every slot, so after the warm-up the dirty-component cache replays a
// cached decision on every component. The sub-benchmark keeps the
// mode=incremental name under which BENCH_PR8.json records the
// production path, so bench-check and the CI bench-regression job gate
// it against that figure. oracle.DiffIncrementalFull and
// oracle.DiffLocalRatioLP prove the replayed decisions equal a re-solve;
// this benchmark only prices them.
func BenchmarkIncrementalServeSlot(b *testing.B) {
	const islands = 16
	b.Run("mode=incremental", func(b *testing.B) {
		// Disconnected 4-station islands: every island is one LP
		// component with heterogeneous capacities, and the head station
		// stays the strictly unique best placement.
		net := benchHeteroIslands(b, islands, benchIslandCaps)
		eng, err := serve.New(serve.Config{
			Net:       net,
			Rng:       rand.New(rand.NewSource(23)),
			DynamicRR: sim.DynamicRROptions{RoundingDenominator: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		eng.Start()
		defer func() { _ = eng.Stop() }()

		specs := benchPeriodicSpecs(islands, len(benchIslandCaps))
		// Reach the periodic fixed point before the clock starts.
		for w := 0; w < 4; w++ {
			if _, err := eng.SubmitBatch(specs); err != nil {
				b.Fatal(err)
			}
			if err := eng.Flush(); err != nil {
				b.Fatal(err)
			}
			if err := eng.Tick(); err != nil {
				b.Fatal(err)
			}
		}

		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Intake happens off the clock: the benchmark prices the
			// scheduling slot, not ingest.
			b.StopTimer()
			if _, err := eng.SubmitBatch(specs); err != nil {
				b.Fatal(err)
			}
			if err := eng.Flush(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := eng.Tick(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st := eng.IncStats()
		if st.CleanHits == 0 {
			b.Fatal("no clean hits: the trace is not periodic")
		}
		if b.N > 1 {
			b.ReportMetric(float64(st.CleanHits)/float64(st.CleanHits+st.DirtySolves), "clean-frac")
		}
	})
}

// benchIslandCaps are the per-island station capacities of the
// incremental benchmark's network. The head station's spare slot-1
// capacity, (3000-1000)/20 = 100 MB/s, fits both the rate-60 and the
// rate-80 outcome; every tail station fits only rate 60, and no station
// pays anything at slot 2 ((cap-2000)/20 < 60 everywhere). A two-outcome
// request therefore has a strictly unique best placement at the head —
// the local-ratio certificate holds — while the component LP still
// carries all four stations' variables for the full re-solve to price.
var benchIslandCaps = []float64{3000, 2500, 2400, 2300}

// benchHeteroIslands builds `islands` disconnected chains of len(caps)
// stations each; intra-island edges have weight 1, so every island
// station is delay-feasible and the whole island is one LP component.
func benchHeteroIslands(b *testing.B, islands int, caps []float64) *mec.Network {
	b.Helper()
	per := len(caps)
	n := islands * per
	g := graph.New(n)
	nodes := make([]topology.Node, n)
	stations := make([]mec.BaseStation, n)
	for i := 0; i < n; i++ {
		nodes[i] = topology.Node{X: float64(i) * 0.1}
		stations[i] = mec.BaseStation{CapacityMHz: caps[i%per], SpeedFactor: 1}
		if i%per != 0 {
			if _, err := g.AddEdge(i-1, i, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
	net, err := mec.NewNetwork(mec.NetworkConfig{
		Stations: stations,
		Topo:     &topology.Topology{Graph: g, Nodes: nodes},
	})
	if err != nil {
		b.Fatal(err)
	}
	return net
}

// BenchmarkLocalRatio prices the pure per-batch decision cost — no
// daemon, no settlement, just ScheduleBatch — on an all-certified
// instance: 16 single-station components, one rate-60 request each.
// mode=incremental replays the dirty-component cache (every component
// clean after the first run); mode=fastpath runs without a cache, so
// every component is dirty and the local-ratio certificate emits its
// schedule combinatorially without touching the LP. Both are the
// production path; the names are the ones BENCH_PR8.json records them
// under.
func BenchmarkLocalRatio(b *testing.B) {
	const stations = 16
	// Single-station islands at 3000 MHz: (3000-1000)/20 = 100 >= 60 pays
	// slot 1 in full, (3000-2000)/20 = 50 < 60 pays slot 2 nothing, so a
	// rate-60 request's best placement is strictly unique on every island.
	net := benchHeteroIslands(b, stations, []float64{3000})
	reqs := make([]*mec.Request, stations)
	active := make([]int, stations)
	for i := range reqs {
		d, err := dist.NewRateReward([]dist.Outcome{
			{Rate: 60, Prob: 1, Reward: float64(100 + 17*i)},
		})
		if err != nil {
			b.Fatal(err)
		}
		reqs[i] = &mec.Request{
			ID:            i,
			AccessStation: i,
			Tasks:         []mec.Task{{Name: "render", OutputKb: 100, WorkMS: 30}},
			DeadlineMS:    200,
			DurationSlots: 4,
			Dist:          d,
		}
		active[i] = i
	}
	for _, mode := range []string{"incremental", "fastpath"} {
		b.Run("mode="+mode, func(b *testing.B) {
			warm := core.NewWarmCache()
			used := make([]float64, stations)
			res := &core.Result{Decisions: make([]core.Decision, stations)}
			rng := rand.New(rand.NewSource(31))
			run := func(inc *core.IncCache) {
				for i := range used {
					used[i] = 0
				}
				for i := range res.Decisions {
					res.Decisions[i] = core.Decision{RequestID: i, Station: -1}
				}
				_, err := core.ScheduleBatch(net, reqs, res, rng, core.BatchOptions{
					Active:              active,
					Used:                used,
					RoundingDenominator: 1,
					Passes:              1,
					Warm:                warm,
					Inc:                 inc,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			// The first run fills the decision cache and proves the
			// instance certifies.
			inc := core.NewIncCache()
			run(inc)
			if st := inc.Stats(); st.FastFallback != 0 || st.FastPath == 0 {
				b.Fatalf("instance is not all-certified: %+v", st)
			}
			if mode == "fastpath" {
				inc = nil
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(inc)
			}
			b.StopTimer()
			if mode == "incremental" {
				if st := inc.Stats(); st.CleanHits == 0 {
					b.Fatalf("steady state never went clean: %+v", st)
				} else if b.N > 1 {
					b.ReportMetric(float64(st.CleanHits)/float64(st.CleanHits+st.DirtySolves), "clean-frac")
				}
			}
		})
	}
}

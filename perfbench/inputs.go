package main

import (
	"math"
	"math/rand"

	"mecoffload/internal/mec"
	"mecoffload/internal/rnd"
	"mecoffload/internal/serve"
)

// network builds the paper-default topology (Waxman graph, capacities
// uniform in [3000, 3600] MHz). It is the same for every run seed: the
// seed varies the request stream, and a fixed topology keeps the
// run-to-run spread of the slot-time tail small enough to gate on.
func network(stations int) (*mec.Network, error) {
	return mec.RandomNetwork(stations, 3000, 3600, rnd.New(1, "perfbench/topology"))
}

// randomSpec draws one request: a uniform access station and an explicit
// five-point demand distribution over 30-50 MB/s with random
// probabilities and a unit reward uniform in [12, 15] per MB/s, the
// ranges of the paper's default workload.
func randomSpec(rng *rand.Rand, stations int) serve.RequestSpec {
	var w [5]float64
	sum := 0.0
	for k := range w {
		w[k] = 0.2 + rng.Float64()
		sum += w[k]
	}
	unit := 12 + 3*rng.Float64()
	outs := make([]serve.OutcomeSpec, len(w))
	for k := range outs {
		rate := 30 + 5*float64(k)
		outs[k] = serve.OutcomeSpec{RateMBs: rate, Prob: w[k] / sum, Reward: unit * rate}
	}
	return serve.RequestSpec{AccessStation: rng.Intn(stations), Outcomes: outs}
}

// poisson draws a Poisson count by Knuth's product method (small means).
func poisson(rng *rand.Rand, mean float64) int {
	limit, p, k := math.Exp(-mean), 1.0, 0
	for {
		p *= rng.Float64()
		if p < limit {
			return k
		}
		k++
	}
}

// arrivals draws per-slot Poisson batches of random requests.
func arrivals(rng *rand.Rand, slots, stations int, mean float64) (batches [][]serve.RequestSpec, total int) {
	batches = make([][]serve.RequestSpec, slots)
	for s := range batches {
		n := poisson(rng, mean)
		b := make([]serve.RequestSpec, n)
		for i := range b {
			b[i] = randomSpec(rng, stations)
		}
		batches[s] = b
		total += n
	}
	return batches, total
}

package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mecoffload/internal/dist"
	"mecoffload/internal/graph"
	"mecoffload/internal/mec"
	"mecoffload/internal/topology"
	"mecoffload/internal/workload"
)

// incTestNetwork builds the two-station bridge network the dirty-set edge
// cases run on: stations 0 and 1 (3000 MHz each) joined by a single 10 ms
// backhaul link, so offloading to the remote station costs a 20 ms round
// trip. A request with a 40 ms deadline is then feasible only at its
// access station (30 ms processing alone), while a 200 ms deadline admits
// both stations — deadlines alone steer the candidate graph's shape.
func incTestNetwork(t *testing.T) *mec.Network {
	t.Helper()
	g := graph.New(2)
	if _, err := g.AddEdge(0, 1, 10); err != nil {
		t.Fatal(err)
	}
	net, err := mec.NewNetwork(mec.NetworkConfig{
		Stations: []mec.BaseStation{
			{CapacityMHz: 3000, SpeedFactor: 1},
			{CapacityMHz: 3000, SpeedFactor: 1},
		},
		Topo: &topology.Topology{
			Graph: g,
			Nodes: []topology.Node{{X: 0, Y: 0}, {X: 0.1, Y: 0}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// incTestRequest builds a single-outcome request (rate 60 MB/s) whose
// candidate set is controlled by its deadline; see incTestNetwork.
func incTestRequest(t *testing.T, id, station int, deadlineMS, reward float64) *mec.Request {
	t.Helper()
	d, err := dist.NewRateReward([]dist.Outcome{{Rate: 60, Prob: 1, Reward: reward}})
	if err != nil {
		t.Fatal(err)
	}
	return &mec.Request{
		ID:            id,
		AccessStation: station,
		Tasks:         []mec.Task{{Name: "render", OutputKb: 100, WorkMS: 30}},
		DeadlineMS:    deadlineMS,
		Dist:          d,
	}
}

// incSlot runs one synthetic scheduling slot: a single-pass ScheduleBatch
// over the given active set against a copy of the baseline occupancy
// ledger (so the caller controls residual capacity per slot exactly), with
// a fixed per-slot rng so repeated slots draw identically. Passes: 1 keeps
// every cache entry on pass 0, making the clean/dirty counters count
// components one-for-one.
func incSlot(t *testing.T, n *mec.Network, reqs []*mec.Request, active []int, baseUsed []float64, inc *IncCache) *Result {
	t.Helper()
	used := append([]float64(nil), baseUsed...)
	res := &Result{Algorithm: "inc-test", Decisions: make([]Decision, len(reqs))}
	_, err := ScheduleBatch(n, reqs, res, rand.New(rand.NewSource(9)), BatchOptions{
		Active:              active,
		Used:                used,
		RoundingDenominator: 1,
		Passes:              1,
		Inc:                 inc,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// diffStats returns the (cleanHits, dirtySolves) delta since a snapshot.
func diffStats(now, before IncStats) (clean, dirty uint64) {
	return now.CleanHits - before.CleanHits, now.DirtySolves - before.DirtySolves
}

// requireStats asserts the clean/dirty counter movement of one slot.
func requireStats(t *testing.T, inc *IncCache, before IncStats, wantClean, wantDirty uint64, slot string) IncStats {
	t.Helper()
	now := inc.Stats()
	clean, dirty := diffStats(now, before)
	if clean != wantClean || dirty != wantDirty {
		t.Fatalf("%s: clean=%d dirty=%d, want clean=%d dirty=%d", slot, clean, dirty, wantClean, wantDirty)
	}
	return now
}

// requireParity asserts an incremental slot's decisions are identical to a
// re-solve of the same slot without the cache (the per-slot refinement of the
// end-to-end oracle.DiffIncrementalFull contract).
func requireParity(t *testing.T, n *mec.Network, reqs []*mec.Request, active []int, baseUsed []float64, got *Result, slot string) {
	t.Helper()
	want := incSlot(t, n, reqs, active, baseUsed, nil)
	if !reflect.DeepEqual(got.Decisions, want.Decisions) {
		t.Fatalf("%s: incremental decisions diverge from full re-solve:\n inc: %+v\nfull: %+v",
			slot, got.Decisions, want.Decisions)
	}
}

// TestIncCacheFeedbackOnlySlotStaysClean pins the quiet-slot contract: a
// slot with no arrivals, no departures, and unchanged residual capacity
// (only bandit feedback happened elsewhere) re-presents bit-identical
// component signatures, so every component is a clean hit and the cached
// decisions are replayed exactly.
func TestIncCacheFeedbackOnlySlotStaysClean(t *testing.T) {
	n := incTestNetwork(t)
	reqs := []*mec.Request{
		incTestRequest(t, 0, 0, 40, 120), // station 0 only
		incTestRequest(t, 1, 1, 40, 180), // station 1 only
	}
	used := []float64{0, 0}
	inc := NewIncCache()

	st := inc.Stats()
	incSlot(t, n, reqs, []int{0, 1}, used, inc)
	st = requireStats(t, inc, st, 0, 2, "slot 1 (cold cache)")

	res := incSlot(t, n, reqs, []int{0, 1}, used, inc)
	requireStats(t, inc, st, 2, 0, "slot 2 (feedback-only)")
	requireParity(t, n, reqs, []int{0, 1}, used, res, "slot 2")
	for j := range reqs {
		if !res.Decisions[j].Admitted {
			t.Fatalf("request %d not admitted on the clean replay", j)
		}
	}
}

// TestIncCacheDepartureDirtiesComponent pins the departure edge case: a
// request leaving mid-stream changes its component's candidate list, so
// that component (and only that component) re-solves; an untouched
// component on another station stays clean. Once the post-departure shape
// has been cached, the stream's steady state is clean again.
func TestIncCacheDepartureDirtiesComponent(t *testing.T) {
	n := incTestNetwork(t)
	reqs := []*mec.Request{
		incTestRequest(t, 0, 0, 40, 120), // station 0, departs after slot 1
		incTestRequest(t, 1, 0, 40, 150), // station 0, stays
		incTestRequest(t, 2, 1, 40, 180), // station 1, stays
	}
	used := []float64{0, 0}
	inc := NewIncCache()

	st := inc.Stats()
	incSlot(t, n, reqs, []int{0, 1, 2}, used, inc)
	st = requireStats(t, inc, st, 0, 2, "slot 1 (cold cache)")

	// Request 0 departs: station 0's component shrinks (dirty), station
	// 1's is untouched (clean).
	res := incSlot(t, n, reqs, []int{1, 2}, used, inc)
	st = requireStats(t, inc, st, 1, 1, "slot 2 (departure)")
	requireParity(t, n, reqs, []int{1, 2}, used, res, "slot 2")

	res = incSlot(t, n, reqs, []int{1, 2}, used, inc)
	requireStats(t, inc, st, 2, 0, "slot 3 (post-departure steady state)")
	requireParity(t, n, reqs, []int{1, 2}, used, res, "slot 3")
}

// TestIncCacheBridgeMergesAndSplits pins the merge/split edge case: a
// bridging request whose candidates span both stations fuses the two
// single-station components into one (re-solved as a whole), and its
// departure splits them apart again. The split re-solves only the
// component whose cache slot the merged solve overwrote — the merged
// component was filed under the smallest station key (0), so station 1's
// pre-merge entry survives and replays clean immediately.
func TestIncCacheBridgeMergesAndSplits(t *testing.T) {
	n := incTestNetwork(t)
	reqs := []*mec.Request{
		incTestRequest(t, 0, 0, 40, 120),  // station 0 only
		incTestRequest(t, 1, 1, 40, 180),  // station 1 only
		incTestRequest(t, 2, 0, 200, 150), // bridge: feasible at both stations
	}
	used := []float64{0, 0}
	inc := NewIncCache()

	st := inc.Stats()
	incSlot(t, n, reqs, []int{0, 1}, used, inc)
	st = requireStats(t, inc, st, 0, 2, "slot 1 (two islands)")

	// The bridge arrives: one merged component, necessarily dirty.
	res := incSlot(t, n, reqs, []int{0, 1, 2}, used, inc)
	st = requireStats(t, inc, st, 0, 1, "slot 2 (merged by bridge)")
	requireParity(t, n, reqs, []int{0, 1, 2}, used, res, "slot 2")

	// The bridge departs: the islands reappear. Key 0 was overwritten by
	// the merged solve (dirty again); key 1 still holds slot 1's entry.
	res = incSlot(t, n, reqs, []int{0, 1}, used, inc)
	st = requireStats(t, inc, st, 1, 1, "slot 3 (split)")
	requireParity(t, n, reqs, []int{0, 1}, used, res, "slot 3")

	res = incSlot(t, n, reqs, []int{0, 1}, used, inc)
	requireStats(t, inc, st, 2, 0, "slot 4 (post-split steady state)")
	requireParity(t, n, reqs, []int{0, 1}, used, res, "slot 4")
}

// TestIncCacheCapacityChangeInvalidates pins the residual-capacity edge
// case: occupancy committed on a station between slots changes that
// station's residual-capacity signature word, invalidating its cached
// decision even though the request population is unchanged. The other
// station's component stays clean, and the new capacity level itself
// caches.
func TestIncCacheCapacityChangeInvalidates(t *testing.T) {
	n := incTestNetwork(t)
	reqs := []*mec.Request{
		incTestRequest(t, 0, 0, 40, 120), // station 0 only
		incTestRequest(t, 1, 1, 40, 180), // station 1 only
	}
	inc := NewIncCache()

	st := inc.Stats()
	incSlot(t, n, reqs, []int{0, 1}, []float64{0, 0}, inc)
	st = requireStats(t, inc, st, 0, 2, "slot 1 (cold cache)")

	// 500 MHz lands on station 0 (a long-running admission elsewhere):
	// its component's residual capacity changes, so the cached decision
	// must not be replayed; station 1 is untouched.
	loaded := []float64{500, 0}
	res := incSlot(t, n, reqs, []int{0, 1}, loaded, inc)
	st = requireStats(t, inc, st, 1, 1, "slot 2 (capacity change)")
	requireParity(t, n, reqs, []int{0, 1}, loaded, res, "slot 2")

	res = incSlot(t, n, reqs, []int{0, 1}, loaded, inc)
	requireStats(t, inc, st, 2, 0, "slot 3 (new level cached)")
	requireParity(t, n, reqs, []int{0, 1}, loaded, res, "slot 3")
}

// TestIncCacheReplayIsBitExact pins the canonical-entry rule below the
// decision level: every slot, the fractional solution the production
// path merges (replayed or solved) must equal, bit for bit, what the
// NoReuse reference computes by re-solving every component. A warm LP
// solve seeded from another problem's basis is not replayable as is —
// re-solving from its own optimal basis can round the last bits
// differently — so the slot sequence alternates between two request sets
// of an LP-PT slot (residual capacities, share caps): each switch seeds
// the new set from the other set's basis, the first repeat must re-solve,
// and only the second repeat may replay.
func TestIncCacheReplayIsBitExact(t *testing.T) {
	const stations = 4
	n, err := mec.RandomNetwork(stations, 3000, 3600, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(workload.Config{NumRequests: 40, NumStations: stations}, rand.New(rand.NewSource(1001)))
	if err != nil {
		t.Fatal(err)
	}
	used := []float64{400, 1100, 0, 700}
	opts := lpOptions{
		capOf:       func(i int) float64 { return n.Capacity(i) - used[i] },
		shareCapFor: func(i int) float64 { return n.Capacity(i) / 20 / n.CUnit() },
	}
	first, second := make([]int, 20), make([]int, 20)
	for j := range first {
		first[j], second[j] = j, 20+j
	}
	prod, ref := NewIncCache(), NewIncCache()
	ref.UseReference(NoReuse)
	prodWarm, refWarm := NewWarmCache(), NewWarmCache()
	solve := func(active []int, inc *IncCache, warm *WarmCache) ([]slotVar, []float64) {
		sc := getSlotScratch()
		defer putSlotScratch(sc)
		o := opts
		o.active = active
		if err := solveDecomposed(n, reqs, o, solveCfg{warm: warm, inc: inc}, sc, &sc.merged); err != nil {
			t.Fatal(err)
		}
		return append([]slotVar(nil), sc.merged.vars...), append([]float64(nil), sc.merged.y...)
	}
	for s, active := range [][]int{first, second, second, second, first, first, first} {
		pv, py := solve(active, prod, prodWarm)
		rv, ry := solve(active, ref, refWarm)
		if len(pv) != len(rv) {
			t.Fatalf("slot %d: %d vars, reference %d", s, len(pv), len(rv))
		}
		for i := range py {
			if pv[i].req != rv[i].req || pv[i].station != rv[i].station || pv[i].slot != rv[i].slot {
				t.Fatalf("slot %d: var %d is %+v, reference %+v", s, i, pv[i], rv[i])
			}
			if math.Float64bits(py[i]) != math.Float64bits(ry[i]) {
				t.Fatalf("slot %d: y[%d] = %v, reference re-solve %v", s, i, py[i], ry[i])
			}
		}
	}
	if st := prod.Stats(); st.CleanHits == 0 || st.FastFallback == 0 {
		t.Fatalf("trace exercised neither replay nor the LP: %+v", st)
	}
}

package cluster

// The migration sweep's worklist contract: the sweep walks only the
// spanning requests it has not yet seen settled, and that pruning is
// invisible in the decision stream. A twin cluster whose worklist the
// test refills before every sweep with every spanning request in the
// routing table — the rule the sweep followed before it pruned — must
// admit the same requests, earn the same reward bits, and commit the
// same migrations; and the pruned worklist must track the pending
// requests instead of growing with uptime.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mecoffload/internal/mec"
	"mecoffload/internal/rnd"
	"mecoffload/internal/serve"
)

const (
	sweepStations = 20
	sweepArrivals = 18 // Poisson mean per slot
)

// sweepNetwork is the paper-default 20-station topology (Waxman graph,
// 3000-3600 MHz). It is connected, so on two shards every request's
// candidate set spans the partition and lands on the sweep's worklist.
func sweepNetwork(t *testing.T) *mec.Network {
	t.Helper()
	net, err := mec.RandomNetwork(sweepStations, 3000, 3600, rnd.New(1, "cluster/sweep-test/topology"))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// sweepBatches draws per-slot Poisson batches of random requests: a
// uniform access station and a five-point demand distribution over
// 30-50 MB/s with a unit reward in [12, 15] per MB/s. deadlineMS zero
// keeps the default deadline.
func sweepBatches(seed int64, slots int, deadlineMS float64) [][]serve.RequestSpec {
	rng := rnd.New(seed, "cluster/sweep-test/arrivals")
	batches := make([][]serve.RequestSpec, slots)
	for s := range batches {
		limit, p, n := math.Exp(-sweepArrivals), 1.0, 0
		for p *= rng.Float64(); p >= limit; p *= rng.Float64() {
			n++
		}
		for range n {
			spec := sweepSpec(rng)
			spec.DeadlineMS = deadlineMS
			batches[s] = append(batches[s], spec)
		}
	}
	return batches
}

func sweepSpec(rng *rand.Rand) serve.RequestSpec {
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
	return serve.RequestSpec{AccessStation: rng.Intn(sweepStations), Outcomes: outs}
}

// sweepRun is one 2-shard cluster with the production sweep (every 4
// slots) and its recorded decision stream.
type sweepRun struct {
	c        *Cluster
	admitted [][]uint64 // per slot, ascending global ids
	rewards  []uint64   // per slot, reward bits
}

func newSweepRun(t *testing.T, net *mec.Network, hysteresis float64) *sweepRun {
	t.Helper()
	r := &sweepRun{}
	c, err := New(Config{
		Net:                 net,
		Shards:              2,
		SchedulerName:       "dynamicrr",
		Seed:                11,
		MigrationHysteresis: hysteresis,
		SlotObserver: func(slot int, admitted []uint64, reward float64) {
			r.admitted = append(r.admitted, slices.Clone(admitted))
			r.rewards = append(r.rewards, math.Float64bits(reward))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.cfg.MigrationEvery != 4 {
		t.Fatalf("production sweep period %d, want 4", c.cfg.MigrationEvery)
	}
	c.Start()
	t.Cleanup(func() { _ = c.Stop() })
	r.c = c
	return r
}

// submit routes one slot's batch and waits until it reached the planners.
func (r *sweepRun) submit(t *testing.T, batch []serve.RequestSpec) {
	t.Helper()
	if len(batch) > 0 {
		if _, err := r.c.SubmitBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.c.Flush(); err != nil {
		t.Fatal(err)
	}
}

// sweepSlot reports whether the tick from slot s runs the sweep.
func (r *sweepRun) sweepSlot(s int) bool { return (s+1)%r.c.cfg.MigrationEvery == 0 }

// shards records the current shard of every spanning routed request.
func (r *sweepRun) shards() map[uint64]int {
	rt := r.c.router
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make(map[uint64]int, len(rt.table))
	for g, loc := range rt.table {
		if len(loc.cands) > 0 {
			out[g] = loc.shard
		}
	}
	return out
}

// moved lists the requests whose shard changed since before, in
// ascending global order: the migrations the sweep committed (no
// drift script runs, so nothing else moves a request between shards).
func (r *sweepRun) moved(before map[uint64]int, slot int) []Migration {
	var out []Migration
	for g, to := range r.shards() {
		if from, ok := before[g]; ok && from != to {
			out = append(out, Migration{Global: g, From: from, To: to, Slot: slot})
		}
	}
	slices.SortFunc(out, func(a, b Migration) int { return int(a.Global) - int(b.Global) })
	return out
}

// refillFullWorklist puts every spanning request in the routing table
// back on the worklist, settled or not: the twin's sweep then walks
// exactly what the sweep walked before it pruned.
func refillFullWorklist(c *Cluster) {
	rt := c.router
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.span = rt.span[:0]
	for g, loc := range rt.table {
		if len(loc.cands) > 0 {
			rt.span = append(rt.span, g)
		}
	}
	slices.Sort(rt.span)
}

// TestSweepWorklistDecisionParity is the differential proof that
// pruning settled requests from the sweep's worklist changes no
// decision: on the benchmark's shape (connected 20-station topology,
// ~18 Poisson arrivals per slot, 2 shards, the production sweep) the
// pruned cluster and a twin that walks every spanning request admit the
// same global ids every slot, earn bit-identical rewards, and commit the
// same migrations in the same order. The pruned cluster's journal keeps
// every commit and names a request "settled" at most once. The default
// 200 ms deadline settles every request within one sweep period, so a
// second case gives requests a 1 s deadline: they wait across several
// sweeps, and a worklist that dropped a still-pending request would
// miss a migration the twin commits. On this topology nearly every
// request homes on shard 0, and in those two cases a pending request
// prices its move to shard 1 at 0.6-1.0, far above the default 0.1
// hysteresis. The third case gives 2 s deadlines, under which shard 1
// fills and most prices fall to 0.2-0.6, and a 0.3 hysteresis: pending
// requests then price below it at one sweep and above it at a later
// one, and a worklist that dropped them while they sat below would miss
// those commits.
func TestSweepWorklistDecisionParity(t *testing.T) {
	for _, tc := range []struct {
		name       string
		deadlineMS float64
		hysteresis float64
	}{
		{"benchmark-shape", 0, 0},
		{"long-deadline", 1000, 0},
		{"mid-hysteresis", 2000, 0.3},
	} {
		t.Run(tc.name, func(t *testing.T) { sweepParity(t, tc.deadlineMS, tc.hysteresis) })
	}
}

func sweepParity(t *testing.T, deadlineMS, hysteresis float64) {
	const slots = 400
	net := sweepNetwork(t)
	batches := sweepBatches(3, slots, deadlineMS)
	prod := newSweepRun(t, net, hysteresis)
	twin := newSweepRun(t, net, hysteresis)

	var prodMoves, twinMoves []Migration
	settledOnce := map[uint64]int{}
	for s := 0; s < slots; s++ {
		prod.submit(t, batches[s])
		twin.submit(t, batches[s])
		sweep := prod.sweepSlot(s)
		var prodBefore, twinBefore map[uint64]int
		if sweep {
			refillFullWorklist(twin.c)
			prodBefore, twinBefore = prod.shards(), twin.shards()
		}
		if err := prod.c.Tick(); err != nil {
			t.Fatal(err)
		}
		if err := twin.c.Tick(); err != nil {
			t.Fatal(err)
		}
		if !sweep {
			continue
		}
		slot := prod.c.Slot()
		pm, tm := prod.moved(prodBefore, slot), twin.moved(twinBefore, slot)
		prodMoves, twinMoves = append(prodMoves, pm...), append(twinMoves, tm...)
		var journaled []Migration
		for _, m := range prod.c.Migrations() {
			if m.Slot != slot {
				continue
			}
			switch {
			case m.Phase == PhaseCommitted:
				journaled = append(journaled, Migration{Global: m.Global, From: m.From, To: m.To, Slot: m.Slot})
			case m.Reason == "settled":
				if settledOnce[m.Global]++; settledOnce[m.Global] > 1 {
					t.Fatalf("slot %d: request %d journaled settled twice", slot, m.Global)
				}
			}
		}
		slices.SortFunc(journaled, func(a, b Migration) int { return int(a.Global) - int(b.Global) })
		if fmt.Sprint(journaled) != fmt.Sprint(pm) {
			t.Fatalf("slot %d: journal commits %v, router moves %v", slot, journaled, pm)
		}
	}

	for s := range slots {
		if !slices.Equal(prod.admitted[s], twin.admitted[s]) {
			t.Fatalf("slot %d: admitted %v, twin admitted %v", s, prod.admitted[s], twin.admitted[s])
		}
		if prod.rewards[s] != twin.rewards[s] {
			t.Fatalf("slot %d: reward %v, twin %v", s,
				math.Float64frombits(prod.rewards[s]), math.Float64frombits(twin.rewards[s]))
		}
	}
	if fmt.Sprint(prodMoves) != fmt.Sprint(twinMoves) {
		t.Fatalf("committed migrations differ:\n pruned %v\n   twin %v", prodMoves, twinMoves)
	}

	// The comparison must not be vacuous: requests span, migrations
	// commit, and the twin walked settled requests the worklist pruned.
	rs := prod.c.RouterStats()
	if rs.Spanning != rs.Routed || rs.Routed == 0 {
		t.Fatalf("spanning %d of %d routed, want every request spanning", rs.Spanning, rs.Routed)
	}
	t.Logf("%d spanning requests, %d migrations committed, %d settled journal entries, worklist %d after %d pruned",
		rs.Spanning, len(prodMoves), len(settledOnce), rs.Worklist, rs.Pruned)
	if len(prodMoves) == 0 {
		t.Fatal("no migration committed: the differential compares nothing")
	}
	if rs.Pruned == 0 || rs.Worklist >= rs.Spanning/4 {
		t.Fatalf("worklist %d after pruning %d of %d spanning requests", rs.Worklist, rs.Pruned, rs.Spanning)
	}
}

// TestSweepWorklistBounded pins the cost side: over 600 slots the
// routed spanning requests grow linearly, while the worklist stays
// within the requests pending at the last sweep plus the arrivals since
// — with no growth with uptime. The second case prices every target
// below hysteresis, so nothing ever migrates: settled requests must
// still leave the worklist.
func TestSweepWorklistBounded(t *testing.T) {
	for _, tc := range []struct {
		name       string
		hysteresis float64
	}{
		{"production", 0},
		// A free-fraction advantage never exceeds 1.
		{"never-priced", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const slots = 600
			net := sweepNetwork(t)
			batches := sweepBatches(4, slots, 0)
			r := newSweepRun(t, net, tc.hysteresis)
			bound, arrived, maxWork := 0, 0, 0
			for s := 0; s < slots; s++ {
				r.submit(t, batches[s])
				arrived += len(batches[s])
				sweep := r.sweepSlot(s)
				if work := int(r.c.RouterStats().Worklist); sweep && work > bound+arrived {
					t.Fatalf("slot %d: worklist %d before the sweep exceeds %d pending at the last sweep + %d arrivals",
						s, work, bound, arrived)
				}
				if err := r.c.Tick(); err != nil {
					t.Fatal(err)
				}
				if !sweep {
					continue
				}
				// The sweep walked the whole list, so what is left was
				// pending (queued or still in intake) when it looked.
				pending := 0
				for _, nd := range r.c.nodes {
					m := nd.eng.Metrics()
					pending += int(m.PendingDepth.Load() + m.IntakeDepth.Load())
				}
				work := int(r.c.RouterStats().Worklist)
				if work > pending {
					t.Fatalf("slot %d: worklist %d after the sweep exceeds %d pending requests", s, work, pending)
				}
				bound, arrived, maxWork = work, 0, max(maxWork, work)
			}
			rs := r.c.RouterStats()
			if rs.Spanning < slots*sweepArrivals*9/10 {
				t.Fatalf("only %d spanning requests routed", rs.Spanning)
			}
			t.Logf("%d spanning requests routed, worklist peaked at %d", rs.Spanning, maxWork)
			if maxWork > int(rs.Spanning)/20 {
				t.Fatalf("worklist peaked at %d of %d spanning requests routed", maxWork, rs.Spanning)
			}
			if rs.Pruned+rs.Worklist != rs.Spanning {
				t.Fatalf("pruned %d + worklist %d != %d spanning routed", rs.Pruned, rs.Worklist, rs.Spanning)
			}
			in, _ := r.c.MigratedCounts()
			if moved := in[0] + in[1]; (tc.hysteresis > 1) != (moved == 0) {
				t.Fatalf("hysteresis %v: %d migrations committed", tc.hysteresis, moved)
			}
		})
	}
}

// TestSweepKeepsIntakeQueuedRequests pins the one pending request the
// sweep cannot extract: a batch-submitted request whose record reads
// pending from the batch push on while it waits in its shard's intake
// ring (held there by MaxPending backpressure). Extract fails for it,
// but it was never settled, so it must stay on the worklist, journaled
// "in intake" rather than "settled", and migrate once it reaches the
// planner.
func TestSweepKeepsIntakeQueuedRequests(t *testing.T) {
	c, err := New(Config{
		Net:            sweepNetwork(t),
		Shards:         2,
		SchedulerName:  "dynamicrr",
		Seed:           11,
		MaxPending:     1,
		MigrationEvery: -1, // the test runs the sweep itself
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(func() { _ = c.Stop() })
	rng := rnd.New(5, "cluster/sweep-test/intake")
	specs := make([]serve.RequestSpec, 24)
	for i := range specs {
		specs[i] = sweepSpec(rng)
	}
	res, err := c.SubmitBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	// Price every move off the busier home shard far above hysteresis.
	homes := [2]int{}
	for _, g := range res.IDs {
		homes[c.router.table[g].shard]++
	}
	src := 0
	if homes[1] > homes[0] {
		src = 1
	}
	c.nodes[src].freeFrac, c.nodes[1-src].freeFrac = 0, 1
	sweep := func() []Migration {
		before := len(c.Migrations())
		c.mu.Lock()
		c.sweepLocked()
		c.mu.Unlock()
		return c.Migrations()[before:]
	}

	queued := map[uint64]bool{}
	for _, m := range sweep() {
		switch m.Reason {
		case "in intake":
			queued[m.Global] = true
		case "settled":
			t.Fatalf("request %d journaled settled while pending", m.Global)
		}
	}
	if len(queued) == 0 {
		t.Fatal("no request was still in intake: the test exercises nothing")
	}
	if rs := c.RouterStats(); rs.Worklist != uint64(len(specs)) || rs.Pruned != 0 {
		t.Fatalf("worklist %d after pruning %d, want all %d pending requests kept", rs.Worklist, rs.Pruned, len(specs))
	}
	// Once the rings drain into the planners, the queued requests move.
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, m := range sweep() {
		if m.Phase == PhaseCommitted && queued[m.Global] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatalf("no request queued at the first sweep migrated at the second (%d queued)", len(queued))
	}
	t.Logf("%d of %d requests in intake at the first sweep, %d migrated at the second", len(queued), len(specs), moved)
}

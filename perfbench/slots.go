package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mecoffload/internal/cluster"
	"mecoffload/internal/rnd"
)

// slotConfig is one slot-stepped cluster workload: a seeded topology and
// Poisson arrival stream, stepped as fast as possible with SubmitBatch,
// Flush and Tick, on a fresh cluster every pass.
type slotConfig struct {
	name           string
	shards         int
	stations       int
	slots          int     // slots per pass
	warmup         int     // leading slots left out of the slot-time percentiles
	arrivals       float64 // Poisson mean per slot
	migrationEvery int     // cluster.Config.MigrationEvery (-1 disables)
	ckptEvery      int     // async checkpoint period in slots (0 disables)
	streams        int     // independently drawn arrival streams a run rotates through
}

// steady is the production cluster of one on the paper's connected
// 20-station setting: no migration, no checkpoints. Its slot-time tail
// depends on the stream (how the learner settles), so a run rotates
// through four streams.
var steadyConfig = slotConfig{
	name: "steady", shards: 1, stations: 20, slots: 4800, warmup: 50,
	arrivals: 18, migrationEvery: -1, streams: 4,
}

// clusterConfig runs the same kind of stream on two shards with the
// production migration sweep (every 4 slots) and async checkpoints (every
// 50). The pass is shorter because the sweep's cost grows with uptime; a
// run rotates through four streams, which halves the seed-to-seed spread
// of the tick p99 against one.
var clusterConfig = slotConfig{
	name: "cluster", shards: 2, stations: 20, slots: 200, warmup: 0,
	arrivals: 18, migrationEvery: 4, ckptEvery: 50, streams: 4,
}

// heapSamples is how many times a pass reads the live heap.
const heapSamples = 8

const (
	tickPlain = iota
	tickSweep
	tickCkpt
)

// tickKind classifies slot s (0-based) by the periodic work its Tick
// does; a checkpoint slot counts as a checkpoint even when it also sweeps.
func (cfg slotConfig) tickKind(s int) int {
	switch {
	case cfg.ckptEvery > 0 && (s+1)%cfg.ckptEvery == 0:
		return tickCkpt
	case cfg.migrationEvery > 0 && (s+1)%cfg.migrationEvery == 0:
		return tickSweep
	}
	return tickPlain
}

// slotAgg accumulates the passes of one mode (gated, timed or traced).
type slotAgg struct {
	attempted, failed        int64
	setupS, tickMS, heapMB   samples
	submitUS, flushUS        samples
	plainMS, sweepMS, ckptMS samples
	stepS, reward            float64
	slots, offered, admitted int
	sweeps                   int
	worklist, commits        float64
	routed, spanning         float64
	ckptTaken, ckptDropped   float64
	ckptWaitMS, ckptBytes    samples
	passes                   []passStat
	prom                     promAgg
	gc                       goDelta
	layers                   tickLayers
}

type passMode int

const (
	passGate passMode = iota
	passTimed
	passTraced
)

// runSlotPass sets up a fresh cluster from the seed and steps every slot
// of arrival stream k. It returns the per-slot decision digests; with ref
// set it fails unless they equal ref.
func runSlotPass(cfg slotConfig, x *runCtx, mode passMode, a *slotAgg, ref []uint64, k int) ([]uint64, error) {
	tr := x.tr
	setupStart := tr.now()
	net, err := network(cfg.stations)
	if err != nil {
		return nil, err
	}
	batches, offered := arrivals(rnd.New(x.seed, fmt.Sprintf("perfbench/arrivals/%d", k)), cfg.slots, cfg.stations, cfg.arrivals)
	ccfg := cluster.Config{
		Net:            net,
		Shards:         cfg.shards,
		SchedulerName:  "dynamicrr",
		Seed:           x.seed,
		MigrationEvery: cfg.migrationEvery,
	}
	if cfg.ckptEvery > 0 {
		dir, err := os.MkdirTemp(x.workDir, cfg.name+"-ckpt-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		ccfg.CheckpointPath = filepath.Join(dir, "cluster.json")
		ccfg.CheckpointEvery = cfg.ckptEvery
		ccfg.AsyncCheckpoint = true
	}
	g := &gate{}
	var h *hooks
	switch mode {
	case passGate:
		ccfg.StepChecker = g.checker()
	case passTraced:
		h = &hooks{tr: tr}
		ccfg.StepChecker = h.checker()
		if cfg.shards == 1 {
			l, err := productionLearner()
			if err != nil {
				return nil, err
			}
			ccfg.DynamicRR.Learner = timedLearner{inner: l, h: h}
		}
	}
	digests := make([]uint64, 0, cfg.slots)
	ccfg.SlotObserver = func(slot int, admitted []uint64, reward float64) {
		digests = append(digests, slotDigest(slot, admitted, reward))
		a.reward += reward
		a.admitted += len(admitted)
		if h != nil {
			h.observe()
		}
	}
	ccfg.Logf = logGate(g)
	c, err := cluster.New(ccfg)
	if err != nil {
		return nil, err
	}
	c.Start()
	stopped := false
	defer func() {
		if !stopped {
			_ = c.Stop()
		}
	}()
	a.setupS = append(a.setupS, float64(tr.now()-setupStart)/1e9)

	op := func(err error) {
		a.attempted++
		if err != nil {
			a.failed++
			g.fail(err)
		}
	}
	g0 := readGo()
	passStep, firstTick := 0.0, len(a.tickMS)
	for s := 0; s < cfg.slots; s++ {
		kind := cfg.tickKind(s)
		sweep := cfg.migrationEvery > 0 && (s+1)%cfg.migrationEvery == 0
		var worklist, inBefore float64
		if sweep {
			// The sweep's worklist is every spanning request in the
			// router table; a Tick routes nothing new, so the count
			// read here is the one the sweep scans.
			worklist = float64(c.RouterStats().Spanning)
			inBefore = migratedIn(c)
		}
		t1 := tr.now()
		slotSpan := tr.open("slot", int64(s), -1, t1)
		if batch := batches[s]; len(batch) > 0 {
			_, err := c.SubmitBatch(batch)
			op(err)
		}
		t2 := tr.now()
		op(c.Flush())
		t3 := tr.now()
		op(c.Tick())
		t4 := tr.now()

		tick := float64(t4-t3) / 1e6
		if s >= cfg.warmup {
			a.tickMS = append(a.tickMS, tick)
		}
		switch kind {
		case tickPlain:
			a.plainMS = append(a.plainMS, tick)
		case tickSweep:
			a.sweepMS = append(a.sweepMS, tick)
		case tickCkpt:
			a.ckptMS = append(a.ckptMS, tick)
		}
		if len(batches[s]) > 0 {
			a.submitUS = append(a.submitUS, float64(t2-t1)/1e3)
		}
		a.flushUS = append(a.flushUS, float64(t3-t2)/1e3)
		a.stepS += float64(t4-t1) / 1e9
		passStep += float64(t4-t1) / 1e9
		if sweep {
			a.sweeps++
			a.worklist += worklist
			a.commits += migratedIn(c) - inBefore
		}
		if mode == passTraced {
			tr.add("cluster.SubmitBatch", int64(s), slotSpan, t1, t2)
			tr.add("cluster.Flush", int64(s), slotSpan, t2, t3)
			tickSpan := tr.add("cluster.Tick", int64(s), slotSpan, t3, t4)
			a.layers.tick(tr, h, tickSpan, int64(s), t3, t4)
		}
		tr.close(slotSpan, t4)
		if (s+1)%(cfg.slots/heapSamples) == 0 {
			// Off the clock: the live heap at evenly spaced slots, so
			// the reading does not hinge on where the pass ends in the
			// planner's compaction cycle.
			g := readGo()
			a.gc.add(g0, g)
			a.heapMB = append(a.heapMB, liveHeapMB())
			g0 = readGo()
		}
	}
	a.gc.add(g0, readGo())
	ticks := a.tickMS[firstTick:]
	a.passes = append(a.passes, passStat{float64(offered) / passStep, ticks.median(), ticks.pct(0.99)})
	a.slots += cfg.slots
	a.offered += offered
	rs := c.RouterStats()
	a.routed += float64(rs.Routed)
	a.spanning += float64(rs.Spanning)
	var buf bytes.Buffer
	op(c.WriteProm(&buf))
	a.prom.add(parseProm(&buf))
	if cfg.ckptEvery > 0 {
		w := tr.now()
		c.WaitCheckpoints()
		a.ckptWaitMS = append(a.ckptWaitMS, float64(tr.now()-w)/1e6)
		a.ckptTaken += float64(cfg.slots / cfg.ckptEvery)
		a.ckptDropped += float64(c.CheckpointsDropped())
		a.ckptBytes = append(a.ckptBytes, dirBytes(filepath.Dir(ccfg.CheckpointPath)))
	}
	if mode == passTraced {
		a.layers.endPass()
	}
	stopped = true
	op(c.Stop())
	if err := g.failed(); err != nil {
		return digests, fmt.Errorf("correctness gate: %w", err)
	}
	if ref != nil {
		if err := sameDigests(digests, ref); err != nil {
			return digests, err
		}
	}
	return digests, nil
}

// sameDigests compares a pass's per-slot decision digests with the gated
// pass's.
func sameDigests(got, ref []uint64) error {
	for i := range min(len(got), len(ref)) {
		if got[i] != ref[i] {
			return fmt.Errorf("correctness gate: slot %d decisions differ from the gated pass", i)
		}
	}
	if len(got) != len(ref) {
		return fmt.Errorf("correctness gate: %d slot decisions, gated pass had %d", len(got), len(ref))
	}
	return nil
}

// logGate fails the gate on any log line that reports an error; the
// program logs informational lines (planner compaction) too.
func logGate(g *gate) func(string, ...any) {
	return func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		if strings.Contains(msg, "error") || strings.Contains(msg, "failed") || strings.Contains(msg, "lost") {
			g.fail(errors.New(msg))
		}
	}
}

func migratedIn(c *cluster.Cluster) float64 {
	in, _ := c.MigratedCounts()
	t := 0.0
	for _, v := range in {
		t += float64(v)
	}
	return t
}

func dirBytes(dir string) float64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	t := 0.0
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			t += float64(info.Size())
		}
	}
	return t
}

// runSlots runs a slot workload: one gated pass (oracle.EngineChecker
// after every slot) fixes the reference decision digests, then timed
// passes fill the budget; with tracing, half the budget runs traced.
func runSlots(cfg slotConfig, x *runCtx) (*report, error) {
	if x.short {
		cfg.slots, cfg.warmup, cfg.streams = 60, 5, 1
		if cfg.ckptEvery > 0 {
			cfg.ckptEvery = 20
		}
	}
	r := newReport(cfg.name)
	r.Params = map[string]any{
		"shards": cfg.shards, "stations": cfg.stations, "slots_per_pass": cfg.slots,
		"warmup_slots": cfg.warmup, "arrivals_per_slot": cfg.arrivals,
		"migration_every": cfg.migrationEvery, "checkpoint_every": cfg.ckptEvery,
		"streams": cfg.streams, "scheduler": "dynamicrr (production defaults)",
	}
	var gated, timed, traced slotAgg
	refs := make([][]uint64, cfg.streams)
	for k := range refs {
		ref, err := runSlotPass(cfg, x, passGate, &gated, nil, k)
		if err != nil {
			r.count(gated.attempted, gated.failed)
			return r, err
		}
		refs[k] = ref
	}
	r.count(gated.attempted, gated.failed)
	err := x.phases(cfg.streams, func(tracing bool, i int) error {
		a, mode := &timed, passTimed
		if tracing {
			a, mode = &traced, passTraced
		}
		_, err := runSlotPass(cfg, x, mode, a, refs[i%cfg.streams], i%cfg.streams)
		return err
	})
	r.count(timed.attempted+traced.attempted, timed.failed+traced.failed)
	if err != nil {
		return r, err
	}
	timed.emitE2E(r)
	if x.trace {
		traced.emitLayers(r, cfg)
		r.overhead(timed.tickMS, traced.tickMS, float64(timed.offered)/timed.stepS, float64(traced.offered)/traced.stepS)
	}
	return r, nil
}

func (a *slotAgg) emitE2E(r *report) {
	slots := float64(a.slots)
	r.e2e("setup_s", a.setupS.median(), len(a.setupS))
	r.e2e("latency_ms.p50", a.tickMS.median(), len(a.tickMS))
	r.e2e("latency_ms.p99", a.tickMS.pct(0.99), len(a.tickMS))
	r.e2e("requests_per_s", float64(a.offered)/a.stepS, a.offered)
	r.e2e("reward_per_slot", a.reward/slots, a.slots)
	r.e2e("admit_frac", ratio(float64(a.admitted), float64(a.offered)), a.offered)
	r.e2e("heap_mb", a.heapMB.median(), len(a.heapMB))
	r.Passes = a.passes

	r.named("slot_ms.p50", a.tickMS.median(), "ms", len(a.tickMS))
	r.named("slot_ms.p99", a.tickMS.pct(0.99), "ms", len(a.tickMS))
	r.named("slot_ms.p99.9", a.tickMS.pct(0.999), "ms", len(a.tickMS))
	r.named("slot_ms.max", a.tickMS.pct(1), "ms", len(a.tickMS))
	r.named("slots_per_s", slots/a.stepS, "1/s", a.slots)
	r.named("reward_per_slot", a.reward/slots, "reward/slot", a.slots)
	r.named("admit_frac", ratio(float64(a.admitted), float64(a.offered)), "fraction", a.offered)
}

func (a *slotAgg) emitLayers(r *report, cfg slotConfig) {
	r.layer("cluster.submit_batch_us.p50", a.submitUS.median(), len(a.submitUS))
	r.layer("cluster.submit_batch_us.p99", a.submitUS.pct(0.99), len(a.submitUS))
	r.layer("cluster.flush_us.p50", a.flushUS.median(), len(a.flushUS))
	r.layer("cluster.flush_us.p99", a.flushUS.pct(0.99), len(a.flushUS))
	r.layer("cluster.tick_ms.plain.p50", a.plainMS.median(), len(a.plainMS))
	r.layer("cluster.tick_ms.plain.p99", a.plainMS.pct(0.99), len(a.plainMS))
	r.layer("cluster.tick_ms.sweep.p50", a.sweepMS.median(), len(a.sweepMS))
	r.layer("cluster.tick_ms.sweep.p99", a.sweepMS.pct(0.99), len(a.sweepMS))
	r.layer("cluster.tick_ms.ckpt.p50", a.ckptMS.median(), len(a.ckptMS))
	r.layer("cluster.router.spanning_frac", ratio(a.spanning, a.routed), int(a.routed))
	r.layer("cluster.sweep.worklist_mean", ratio(a.worklist, float64(a.sweeps)), a.sweeps)
	r.layer("cluster.sweep.commit_ratio", ratio(a.commits, a.worklist), int(a.worklist))
	r.layer("cluster.migrations_per_sweep", ratio(a.commits, float64(a.sweeps)), a.sweeps)
	r.layer("ckpt.dropped_frac", ratio(a.ckptDropped, a.ckptTaken), int(a.ckptTaken))
	r.layer("ckpt.wait_ms", a.ckptWaitMS.median(), len(a.ckptWaitMS))
	r.layer("ckpt.bytes", a.ckptBytes.median(), len(a.ckptBytes))
	a.prom.emit(r)
	a.layers.emit(r)
	r.gcLayers(&a.gc, float64(a.slots))
}

package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"mecoffload"
	"mecoffload/internal/core"
	"mecoffload/internal/rnd"
	"mecoffload/internal/sim"
	"mecoffload/internal/workload"
)

// reproSizes are the Fig. 3 request counts Appro and Heu solve offline;
// onlineSizes x onlineReps are the Fig. 4 arrival streams (100-slot
// arrival horizon) DynamicRR runs online. All on 20 stations.
//
// A run rotates through reproSets independently drawn instance sets, so
// its figures average over instances as well as over time. The online
// streams are many and cheap (80 per set, 320 per run): the slot-time
// p99 sits in a steep, heavy tail that a few streams decide, and with
// 40 streams per run the instance draw alone spread it by about 0.12
// (IQR over median) from seed to seed.
var (
	reproSizes  = []int{100, 200, 300}
	onlineSizes = []int{100, 150, 200, 250, 300}
	onlineReps  = 16
	reproSets   = 4
)

// reproAgg accumulates the passes of one mode.
type reproAgg struct {
	attempted, failed    int64
	setupS, sliceS       samples
	heapMB               samples
	requests, seconds    float64
	slotMS               samples
	dynReward, dynSlots  float64
	dynAdmitted, dynReqs float64
	setReward            map[int]float64 // total reward of every run, per instance set
	approMS, heuMS       map[int]samples
	auditMS, runMS       samples
	passes               []passStat
	gc                   goDelta
	layers               tickLayers
}

func runRepro(x *runCtx) (*report, error) {
	r := newReport("repro")
	r.cover = "sim.slot"
	r.Params = map[string]any{
		"stations": 20, "offline_requests": reproSizes, "offline": "Appro, Heu (mecoffload facade, audited)",
		"online_requests": onlineSizes, "online_reps": onlineReps, "instance_sets": reproSets,
		"online": "DynamicRR on Fig. 4 arrival streams (100-slot arrival horizon), AuditTimeline",
	}
	sets := reproSets
	if x.short {
		sets = 1
	}
	var gated, timed, traced reproAgg
	refs := make([][]uint64, sets)
	for k := range refs {
		ref, err := runReproPass(x, passGate, &gated, nil, k)
		if err != nil {
			r.count(gated.attempted, gated.failed)
			return r, err
		}
		refs[k] = ref
	}
	r.count(gated.attempted, gated.failed)
	err := x.phases(sets, func(tracing bool, i int) error {
		a, mode := &timed, passTimed
		if tracing {
			a, mode = &traced, passTraced
		}
		_, err := runReproPass(x, mode, a, refs[i%sets], i%sets)
		return err
	})
	r.count(timed.attempted+traced.attempted, timed.failed+traced.failed)
	if err != nil {
		return r, err
	}
	timed.emitE2E(r)
	if x.trace {
		traced.emitLayers(r)
		r.overhead(timed.slotMS, traced.slotMS, timed.requests/timed.seconds, traced.requests/traced.seconds)
	}
	return r, nil
}

// runReproPass generates the scenarios (the setup), then runs Appro and
// Heu offline on the Fig. 3 instances and DynamicRR online on the Fig. 4
// streams, auditing every result. The per-run reward digests must equal
// ref.
func runReproPass(x *runCtx, mode passMode, a *reproAgg, ref []uint64, set int) ([]uint64, error) {
	tr := x.tr
	offSizes, onSizes, reps := reproSizes, onlineSizes, onlineReps
	if x.short {
		offSizes, onSizes, reps = []int{30}, []int{30}, 1
	}
	scenario := func(label string, n int) (*mecoffload.Scenario, error) {
		return mecoffload.NewScenario(mecoffload.ScenarioConfig{Stations: 20, Requests: n},
			rnd.New(x.seed, fmt.Sprintf("perfbench/repro/set%d/%s/r%d", set, label, n)))
	}
	setup := tr.now()
	var offline, online []*mecoffload.Scenario
	for _, n := range offSizes {
		scn, err := scenario("fig3", n)
		if err != nil {
			return nil, err
		}
		offline = append(offline, scn)
	}
	for rep := 0; rep < reps; rep++ {
		for _, n := range onSizes {
			scn, err := scenario(fmt.Sprintf("fig4/rep%d", rep), n)
			if err != nil {
				return nil, err
			}
			online = append(online, scn)
		}
	}
	a.setupS = append(a.setupS, float64(tr.now()-setup)/1e9)
	if a.approMS == nil {
		a.approMS, a.heuMS, a.setReward = map[int]samples{}, map[int]samples{}, map[int]float64{}
	}
	op := func(err error) error {
		a.attempted++
		if err != nil {
			a.failed++
		}
		return err
	}
	var digests []uint64
	var results []*core.Result
	var auditMS, runMS, reward float64
	g0 := readGo()
	firstSlot, passReqs := len(a.slotMS), 0.0
	start := tr.now()
	pass := tr.open("repro.pass", int64(len(a.sliceS)), -1, start)
	for i, n := range offSizes {
		for _, algo := range []mecoffload.Algorithm{mecoffload.Appro, mecoffload.Heu} {
			rng := rnd.New(x.seed, fmt.Sprintf("perfbench/repro/set%d/%s/r%d", set, algo, n))
			res, solveMS, aMS, err := runOffline(tr, mode, offline[i], algo, rng, pass, n)
			if op(err) != nil {
				return nil, fmt.Errorf("correctness gate: %s r=%d: %w", algo, n, err)
			}
			if algo == mecoffload.Appro {
				a.approMS[n] = append(a.approMS[n], solveMS)
			} else {
				a.heuMS[n] = append(a.heuMS[n], solveMS)
			}
			auditMS += aMS
			reward += res.TotalReward
			results = append(results, res)
			digests = append(digests, resultDigest(string(algo), n, res))
			a.requests += float64(n)
			passReqs += float64(n)
		}
	}
	for k, scn := range online {
		n := len(scn.Online)
		res, slotMS, rMS, aMS, err := runOnline(x, mode, a, scn, set*len(online)+k, pass)
		if op(err) != nil {
			return nil, fmt.Errorf("correctness gate: DynamicRR r=%d: %w", n, err)
		}
		a.slotMS = append(a.slotMS, slotMS...)
		runMS += rMS
		auditMS += aMS
		a.dynReward += res.TotalReward
		a.dynSlots += float64(scn.Horizon)
		a.dynAdmitted += float64(res.Admitted)
		a.dynReqs += float64(n)
		reward += res.TotalReward
		results = append(results, res)
		digests = append(digests, resultDigest("DynamicRR", n, res))
		a.requests += float64(n)
		passReqs += float64(n)
	}
	end := tr.now()
	tr.close(pass, end)
	a.gc.add(g0, readGo())
	a.sliceS = append(a.sliceS, float64(end-start)/1e9)
	a.seconds += float64(end-start) / 1e9
	slots := a.slotMS[firstSlot:]
	a.passes = append(a.passes, passStat{passReqs / (float64(end-start) / 1e9), slots.median(), slots.pct(0.99)})
	a.auditMS = append(a.auditMS, auditMS)
	a.runMS = append(a.runMS, runMS)
	a.setReward[set] = reward
	// The footprint of the reproduction: every scenario and result live.
	a.heapMB = append(a.heapMB, liveHeapMB())
	runtime.KeepAlive(offline)
	runtime.KeepAlive(online)
	runtime.KeepAlive(results)
	a.layers.endPass()
	if ref != nil {
		if err := sameDigests(digests, ref); err != nil {
			return digests, err
		}
	}
	return digests, nil
}

// runOnline runs DynamicRR over one scenario's arrival stream, making
// Scenario.RunOnline's calls itself so a step checker can be installed:
// the gate's oracle checker, or a timestamping one that times each slot.
func runOnline(x *runCtx, mode passMode, a *reproAgg, scn *mecoffload.Scenario, k int, pass int32) (res *core.Result, slotMS samples, runMS, auditMS float64, err error) {
	tr := x.tr
	opts := sim.DynamicRROptions{}
	h := &hooks{tr: tr}
	if mode == passTraced {
		l, err := productionLearner()
		if err != nil {
			return nil, nil, 0, 0, err
		}
		opts.Learner = timedLearner{inner: l, h: h}
	}
	sched, err := sim.NewDynamicRR(opts)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	n := len(scn.Online)
	eng, err := sim.NewEngine(scn.Net, scn.Online, rnd.New(x.seed, fmt.Sprintf("perfbench/repro/DynamicRR/%d", k)),
		sim.Config{Horizon: scn.Horizon})
	if err != nil {
		return nil, nil, 0, 0, err
	}
	g := &gate{}
	if mode == passGate {
		eng.SetStepChecker(g.checker())
	} else {
		eng.SetStepChecker(h.checker())
	}
	workload.Reset(scn.Online)
	t0 := tr.now()
	res, err = eng.Run(sched)
	t1 := tr.now()
	if err == nil {
		err = g.failed()
	}
	if err != nil {
		return nil, nil, 0, 0, err
	}
	err = sim.AuditTimeline(scn.Net, scn.Online, res, scn.Horizon)
	t2 := tr.now()
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("audit: %w", err)
	}
	runSpan := tr.add("sim.Run", int64(n), pass, t0, t1)
	tr.add("sim.AuditTimeline", int64(n), pass, t1, t2)
	if mode != passGate {
		slotMS = a.layers.simRun(tr, h, runSpan, t0)
	}
	return res, slotMS, float64(t1-t0) / 1e6, float64(t2-t1) / 1e6, nil
}

// runOffline runs one offline algorithm and its audit. Untraced, it goes
// through the facade (Scenario.RunOffline, which audits); traced, it
// makes the facade's calls itself so the solve and the audit time apart.
func runOffline(tr *tracer, mode passMode, scn *mecoffload.Scenario, algo mecoffload.Algorithm, rng *rand.Rand, parent int32, n int) (*core.Result, float64, float64, error) {
	t0 := tr.now()
	if mode != passTraced {
		res, err := scn.RunOffline(algo, rng)
		return res, float64(tr.now()-t0) / 1e6, 0, err
	}
	workload.Reset(scn.Offline)
	var res *core.Result
	var err error
	if algo == mecoffload.Appro {
		res, err = core.Appro(scn.Net, scn.Offline, rng, core.ApproOptions{})
	} else {
		res, err = core.Heu(scn.Net, scn.Offline, rng, core.HeuOptions{})
	}
	t1 := tr.now()
	if err == nil {
		err = core.Audit(scn.Net, scn.Offline, res)
	}
	t2 := tr.now()
	tr.add("core."+string(algo), int64(n), parent, t0, t1)
	tr.add("core.Audit", int64(n), parent, t1, t2)
	return res, float64(t1-t0) / 1e6, float64(t2-t1) / 1e6, err
}

// resultDigest hashes one run's outcome: algorithm, size, exact reward
// bits and the admitted and served counts.
func resultDigest(algo string, n int, res *core.Result) uint64 {
	return digest([]byte(algo), uint64(n), math.Float64bits(res.TotalReward), uint64(res.Admitted), uint64(res.Served))
}

func (a *reproAgg) emitE2E(r *report) {
	r.e2e("setup_s", a.setupS.median(), len(a.setupS))
	r.e2e("latency_ms.p50", a.slotMS.median(), len(a.slotMS))
	r.e2e("latency_ms.p99", a.slotMS.pct(0.99), len(a.slotMS))
	r.e2e("requests_per_s", a.requests/a.seconds, int(a.requests))
	r.e2e("reward_per_slot", ratio(a.dynReward, a.dynSlots), int(a.dynSlots))
	r.e2e("admit_frac", ratio(a.dynAdmitted, a.dynReqs), int(a.dynReqs))
	r.e2e("heap_mb", a.heapMB.median(), len(a.heapMB))
	r.Passes = a.passes

	r.named("repro_s", a.sliceS.median(), "s", len(a.sliceS))
	total := 0.0
	for _, v := range a.setReward {
		total += v
	}
	r.named("repro.reward", total, "reward", len(a.setReward))
	r.named("repro.dynamicrr_slot_ms.p50", a.slotMS.median(), "ms", len(a.slotMS))
	r.named("repro.dynamicrr_slot_ms.p99", a.slotMS.pct(0.99), "ms", len(a.slotMS))
}

func (a *reproAgg) emitLayers(r *report) {
	for _, n := range reproSizes {
		r.layer(fmt.Sprintf("core.appro_ms.r%d", n), a.approMS[n].median(), len(a.approMS[n]))
		r.layer(fmt.Sprintf("core.heu_ms.r%d", n), a.heuMS[n].median(), len(a.heuMS[n]))
	}
	r.layer("core.audit_ms", a.auditMS.median(), len(a.auditMS))
	r.layer("sim.run_ms", a.runMS.median(), len(a.runMS))
	a.layers.emit(r)
	r.gcLayers(&a.gc, a.dynSlots)
}

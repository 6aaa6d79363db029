package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"mecoffload/internal/cluster"
	"mecoffload/internal/rnd"
	"mecoffload/internal/serve"
)

// ingestConfig is the intake workload: NDJSON batches POSTed over
// loopback to cluster.Handler on a small one-shard cluster ticked every
// 50 ms, with bounded pending/stage so that shedding engages.
type ingestConfig struct {
	stations    int
	tick        time.Duration
	ring, stage int
	maxPending  int
	batch       int       // request lines per POST
	rates       []float64 // open-loop offered loads, requests per second
	conns       int       // HTTP connections (open and closed loop)
	statusEvery int       // one GET /v1/requests/{id} per this many POSTs per connection
	pool        int       // distinct pre-encoded batch bodies
}

var ingestDefaults = ingestConfig{
	stations: 4, tick: 50 * time.Millisecond,
	ring: 1024, stage: 512, maxPending: 512,
	batch: 25, rates: []float64{4000, 8000}, conns: 2, statusEvery: 10, pool: 256,
}

// ingestAgg accumulates the passes of one mode.
type ingestAgg struct {
	attempted, failed     int64
	setupS, heapMB        samples
	ack                   map[float64]samples // per open-loop rate, ms from due time
	lateMS, statusMS      samples
	statusUS              samples
	capAccepted, capSec   float64
	openReward, openTicks float64
	openAdmitted, openAcc float64
	posts, saturated      float64
	tickMS, plainMS       samples
	sweepMS               samples
	ticks                 int
	decodeUS, submitUS    samples
	flushUS               samples
	prom                  promAgg
	gc                    goDelta
	layers                tickLayers
}

// ingestRun is one live cluster behind an HTTP server and its clock.
type ingestRun struct {
	cfg    ingestConfig
	x      *runCtx
	a      *ingestAgg
	g      *gate
	h      *hooks
	c      *cluster.Cluster
	srv    *http.Server
	served chan error
	url    string
	client *http.Client
	bodies [][]byte

	// mu guards the counters below and the agg's samples that the
	// clock and the connections both append to.
	mu              sync.Mutex
	reward          float64
	admitted, ticks float64
	accepted, posts float64
	saturated       float64

	stopClock chan struct{}
	clockDone chan struct{}
}

func runIngest(x *runCtx) (*report, error) {
	cfg := ingestDefaults
	r := newReport("ingest")
	r.Params = map[string]any{
		"stations": cfg.stations, "shards": 1, "tick_ms": cfg.tick.Milliseconds(),
		"ring": cfg.ring, "stage": cfg.stage, "max_pending": cfg.maxPending,
		"batch_lines": cfg.batch, "open_loop_rates_rps": cfg.rates, "connections": cfg.conns,
		"status_read_every_posts": cfg.statusEvery, "closed_loop_connections": cfg.conns,
		"latency_from": "due send time",
	}
	var timed, traced ingestAgg
	err := x.phases(1, func(tr bool, _ int) error {
		a, mode := &timed, passTimed
		if tr {
			a, mode = &traced, passTraced
		}
		return runIngestPass(cfg, x, mode, a)
	})
	r.count(timed.attempted+traced.attempted, timed.failed+traced.failed)
	if err != nil {
		return r, err
	}
	top := cfg.rates[len(cfg.rates)-1]
	timed.emitE2E(r, cfg)
	if x.trace {
		traced.emitLayers(r)
		r.overhead(timed.ack[top], traced.ack[top], timed.capAccepted/timed.capSec, traced.capAccepted/traced.capSec)
	}
	return r, nil
}

// runIngestPass sets the cluster up three times (the setup time is the
// median), then runs the open-loop rates and the closed loop on the last
// one, and checks conservation and queue bounds.
func runIngestPass(cfg ingestConfig, x *runCtx, mode passMode, a *ingestAgg) error {
	budget := x.budget
	if x.trace {
		budget /= 2
	}
	phase := time.Duration(float64(budget) * 0.3)
	if x.short {
		phase = 300 * time.Millisecond
	}
	var run *ingestRun
	for i := 0; i < 3; i++ {
		if run != nil {
			run.close()
		}
		var err error
		run, err = startIngest(cfg, x, mode, a)
		if err != nil {
			return err
		}
	}
	defer run.close()
	g0 := readGo()
	for _, rate := range cfg.rates {
		if err := run.openLoop(rate, phase); err != nil {
			return err
		}
	}
	if err := run.closedLoop(phase); err != nil {
		return err
	}
	a.gc.add(g0, readGo())
	a.heapMB = append(a.heapMB, liveHeapMB())
	// Flush drains the ring past MaxPending, so the queue bounds are
	// checked only while the clock runs, before anything flushes.
	run.stopTicking()
	if mode == passTraced {
		if err := run.directIntake(); err != nil {
			return err
		}
	}
	return run.conserve()
}

func startIngest(cfg ingestConfig, x *runCtx, mode passMode, a *ingestAgg) (*ingestRun, error) {
	start := x.tr.now()
	topo, err := network(cfg.stations)
	if err != nil {
		return nil, err
	}
	rng := rnd.New(x.seed, "perfbench/ingest")
	bodies := make([][]byte, cfg.pool)
	for i := range bodies {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		for j := 0; j < cfg.batch; j++ {
			if err := enc.Encode(randomSpec(rng, cfg.stations)); err != nil {
				return nil, err
			}
		}
		bodies[i] = b.Bytes()
	}
	run := &ingestRun{cfg: cfg, x: x, a: a, g: &gate{}, bodies: bodies,
		stopClock: make(chan struct{}), clockDone: make(chan struct{}), served: make(chan error, 1)}
	ccfg := cluster.Config{
		Net: topo, Shards: 1, SchedulerName: "dynamicrr", Seed: x.seed,
		RingCapacity: cfg.ring, StageCapacity: cfg.stage, MaxPending: cfg.maxPending,
		Logf: logGate(run.g),
		SlotObserver: func(_ int, admitted []uint64, reward float64) {
			run.mu.Lock()
			run.reward += reward
			run.admitted += float64(len(admitted))
			run.ticks++
			run.mu.Unlock()
			if run.h != nil {
				run.h.observe()
			}
		},
	}
	if mode == passTraced {
		run.h = &hooks{tr: x.tr}
		ccfg.StepChecker = run.h.checker()
		l, err := productionLearner()
		if err != nil {
			return nil, err
		}
		ccfg.DynamicRR.Learner = timedLearner{inner: l, h: run.h}
	}
	run.c, err = cluster.New(ccfg)
	if err != nil {
		return nil, err
	}
	run.c.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = run.c.Stop()
		return nil, err
	}
	run.url = "http://" + ln.Addr().String()
	run.srv = &http.Server{Handler: cluster.Handler(run.c), ReadHeaderTimeout: 5 * time.Second}
	go func() { run.served <- run.srv.Serve(ln) }()
	run.client = &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost: cfg.conns, MaxIdleConnsPerHost: cfg.conns, DisableCompression: true,
		},
	}
	go run.clock()
	a.setupS = append(a.setupS, float64(x.tr.now()-start)/1e9)
	return run, nil
}

// clock ticks the cluster every cfg.tick, like the cluster's own clock,
// so the benchmark can time each Tick and check the queue bounds.
func (run *ingestRun) clock() {
	defer close(run.clockDone)
	t := time.NewTicker(run.cfg.tick)
	defer t.Stop()
	for {
		select {
		case <-run.stopClock:
			return
		case <-t.C:
			run.tickOnce()
		}
	}
}

func (run *ingestRun) tickOnce() {
	a, tr := run.a, run.x.tr
	slot := run.c.Slot()
	start := tr.now()
	err := run.c.Tick()
	end := tr.now()
	run.op(err)
	ms := float64(end-start) / 1e6
	a.tickMS = append(a.tickMS, ms)
	if (slot+1)%4 == 0 { // cluster.Config's default migration period
		a.sweepMS = append(a.sweepMS, ms)
	} else {
		a.plainMS = append(a.plainMS, ms)
	}
	a.ticks++
	if run.h != nil {
		span := tr.add("cluster.Tick", int64(slot), -1, start, end)
		a.layers.tick(tr, run.h, span, int64(slot), start, end)
	}
	var buf bytes.Buffer
	run.op(run.c.WriteProm(&buf))
	p := parseProm(&buf)
	if d := p.max("arserved_cluster_intake_depth"); d > float64(run.cfg.ring+run.cfg.stage) {
		run.g.fail(fmt.Errorf("intake depth %v exceeds ring %d + stage %d", d, run.cfg.ring, run.cfg.stage))
	}
	if d := p.max("arserved_cluster_pending_requests"); d > float64(run.cfg.maxPending) {
		run.g.fail(fmt.Errorf("pending depth %v exceeds max pending %d", d, run.cfg.maxPending))
	}
}

// op counts one operation; concurrent callers hold no lock, so the
// counters it touches are guarded by run.mu.
func (run *ingestRun) op(err error) {
	run.mu.Lock()
	run.a.attempted++
	if err != nil {
		run.a.failed++
	}
	run.mu.Unlock()
	if err != nil {
		run.g.fail(err)
	}
}

type batchReply struct {
	Accepted int               `json:"accepted"`
	Shed     int               `json:"shed"`
	IDs      []uint64          `json:"ids"`
	Errors   []serve.LineError `json:"errors"`
}

// post sends one batch body and returns the decoded reply.
func (run *ingestRun) post(body []byte) (batchReply, error) {
	var rep batchReply
	resp, err := run.client.Post(run.url+"/v1/requests:batch", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return rep, err
	}
	run.mu.Lock()
	run.posts++
	if resp.StatusCode == http.StatusServiceUnavailable {
		run.saturated++
	}
	run.mu.Unlock()
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("POST batch: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, err
	}
	if len(rep.Errors) > 0 || rep.Accepted != len(rep.IDs) {
		return rep, fmt.Errorf("POST batch: %d line errors, %d accepted for %d ids", len(rep.Errors), rep.Accepted, len(rep.IDs))
	}
	run.mu.Lock()
	run.accepted += float64(rep.Accepted)
	run.mu.Unlock()
	return rep, nil
}

// status reads one request's status over HTTP (and, traced, directly).
func (run *ingestRun) status(id uint64, batch int64, parent int32) error {
	tr := run.x.tr
	s := tr.now()
	resp, err := run.client.Get(fmt.Sprintf("%s/v1/requests/%d", run.url, id))
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	e := tr.now()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET status %d: %s", id, resp.Status)
	}
	tr.add("http.GetStatus", batch, parent, s, e)
	var direct float64
	if run.h != nil {
		d0 := tr.now()
		_, ok, err := run.c.Status(id)
		d1 := tr.now()
		if err != nil || !ok {
			return fmt.Errorf("cluster.Status %d: ok=%v err=%v", id, ok, err)
		}
		tr.add("cluster.Status", batch, parent, d0, d1)
		direct = float64(d1-d0) / 1e3
	}
	run.mu.Lock()
	run.a.statusMS = append(run.a.statusMS, float64(e-s)/1e6)
	if run.h != nil {
		run.a.statusUS = append(run.a.statusUS, direct)
	}
	run.mu.Unlock()
	return nil
}

// openLoop offers `rate` requests per second for dur: batch i is due at
// start + i*interval whatever happened to earlier batches, connections
// take due batches in turn, and each ack is timed from its due time.
func (run *ingestRun) openLoop(rate float64, dur time.Duration) error {
	cfg, tr := run.cfg, run.x.tr
	interval := time.Duration(float64(cfg.batch) / rate * float64(time.Second))
	n := int(dur / interval)
	run.mu.Lock()
	r0, adm0, acc0, t0 := run.reward, run.admitted, run.accepted, run.ticks
	run.mu.Unlock()
	origin := time.Now()
	originNS := tr.now()
	var wg sync.WaitGroup
	var firstErr error
	var errMu sync.Mutex
	ack := make([]float64, n)
	late := make([]float64, n)
	for k := 0; k < cfg.conns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i, posts := k, 0; i < n; i += cfg.conns {
				due := origin.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				dueNS := originNS + int64(time.Duration(i)*interval)
				sent := tr.now()
				rep, err := run.post(run.bodies[i%len(run.bodies)])
				acked := tr.now()
				run.op(err)
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
				ack[i] = float64(acked-dueNS) / 1e6
				late[i] = float64(sent-dueNS) / 1e6
				root := tr.add("batch", int64(i), -1, dueNS, acked)
				tr.add("gen.late", int64(i), root, dueNS, sent)
				tr.add("http.PostBatch", int64(i), root, sent, acked)
				if posts++; posts%cfg.statusEvery == 0 {
					run.op(run.status(rep.IDs[0], int64(i), root))
				}
			}
		}(k)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	run.mu.Lock()
	defer run.mu.Unlock()
	if run.a.ack == nil {
		run.a.ack = map[float64]samples{}
	}
	run.a.ack[rate] = append(run.a.ack[rate], ack...)
	run.a.lateMS = append(run.a.lateMS, late...)
	run.a.openReward += run.reward - r0
	run.a.openAdmitted += run.admitted - adm0
	run.a.openAcc += run.accepted - acc0
	run.a.openTicks += run.ticks - t0
	return nil
}

// closedLoop measures capacity: every connection posts its next batch
// as soon as the previous one is acknowledged.
func (run *ingestRun) closedLoop(dur time.Duration) error {
	cfg := run.cfg
	run.mu.Lock()
	acc0 := run.accepted
	run.mu.Unlock()
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, cfg.conns)
	for k := 0; k < cfg.conns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; time.Since(start) < dur; i += cfg.conns {
				_, err := run.post(run.bodies[i%len(run.bodies)])
				run.op(err)
				if err != nil {
					errs[k] = err
					return
				}
			}
		}(k)
	}
	wg.Wait()
	sec := time.Since(start).Seconds()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	run.mu.Lock()
	run.a.capAccepted += run.accepted - acc0
	run.a.capSec += sec
	run.mu.Unlock()
	return nil
}

// directIntake times the intake layers without HTTP on the workload's
// own payload: serve.DecodeBatch per body, then cluster.SubmitBatch and
// cluster.Flush.
func (run *ingestRun) directIntake() error {
	tr := run.x.tr
	for i, body := range run.bodies[:min(64, len(run.bodies))] {
		s := tr.now()
		lines, lineErrs, err := serve.DecodeBatch(bytes.NewReader(body), 0, 0)
		d := tr.now()
		if err != nil || len(lineErrs) > 0 {
			return fmt.Errorf("DecodeBatch: err=%v line errors=%d", err, len(lineErrs))
		}
		specs := make([]serve.RequestSpec, len(lines))
		for j, ln := range lines {
			specs[j] = ln.Spec
		}
		res, err := run.c.SubmitBatch(specs)
		sb := tr.now()
		run.op(err)
		if err != nil {
			return err
		}
		err = run.c.Flush()
		f := tr.now()
		run.op(err)
		if err != nil {
			return err
		}
		root := tr.add("direct_intake", int64(i), -1, s, f)
		tr.add("serve.DecodeBatch", int64(i), root, s, d)
		tr.add("cluster.SubmitBatch", int64(i), root, d, sb)
		tr.add("cluster.Flush", int64(i), root, sb, f)
		run.mu.Lock()
		run.accepted += float64(len(res.IDs))
		run.a.decodeUS = append(run.a.decodeUS, float64(d-s)/1e3)
		run.a.submitUS = append(run.a.submitUS, float64(sb-d)/1e3)
		run.a.flushUS = append(run.a.flushUS, float64(f-sb)/1e3)
		run.mu.Unlock()
	}
	return nil
}

// conserve flushes, runs one more Tick and checks that every accepted
// request is accounted for: accepted = submitted to the planner + shed,
// and submitted = admitted + expired + still pending.
func (run *ingestRun) conserve() error {
	run.op(run.c.Flush())
	run.op(run.c.Tick())
	var buf bytes.Buffer
	run.op(run.c.WriteProm(&buf))
	p := parseProm(&buf)
	submitted := p.sum("arserved_cluster_requests_total", `result="submitted"`)
	shed := p.sum("arserved_cluster_requests_total", `result="shed"`)
	admitted := p.sum("arserved_cluster_requests_total", `result="admitted"`)
	expired := p.sum("arserved_cluster_requests_total", `result="expired"`)
	pending := p.sum("arserved_cluster_pending_requests")
	run.mu.Lock()
	accepted := run.accepted
	run.a.posts += run.posts
	run.a.saturated += run.saturated
	run.mu.Unlock()
	if err := run.g.failed(); err != nil {
		return fmt.Errorf("correctness gate: %w", err)
	}
	if accepted != submitted+shed {
		return fmt.Errorf("correctness gate: %v accepted, but %v submitted + %v shed (intake depth %v)", accepted, submitted, shed, p.sum("arserved_cluster_intake_depth"))
	}
	if submitted != admitted+expired+pending {
		return fmt.Errorf("correctness gate: %v submitted, but %v admitted + %v expired + %v pending", submitted, admitted, expired, pending)
	}
	run.a.prom.add(p)
	return nil
}

func (run *ingestRun) stopTicking() {
	select {
	case <-run.stopClock:
	default:
		close(run.stopClock)
	}
	<-run.clockDone
}

func (run *ingestRun) close() {
	run.stopTicking()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = run.srv.Shutdown(ctx)
	<-run.served
	run.client.CloseIdleConnections()
	_ = run.c.Stop()
}

func (a *ingestAgg) emitE2E(r *report, cfg ingestConfig) {
	top := a.ack[cfg.rates[len(cfg.rates)-1]]
	r.e2e("setup_s", a.setupS.median(), len(a.setupS))
	r.e2e("latency_ms.p50", top.median(), len(top))
	r.e2e("latency_ms.p99", top.pct(0.99), len(top))
	r.e2e("requests_per_s", a.capAccepted/a.capSec, int(a.capAccepted))
	r.e2e("reward_per_slot", ratio(a.openReward, a.openTicks), int(a.openTicks))
	r.e2e("admit_frac", ratio(a.openAdmitted, a.openAcc), int(a.openAcc))
	r.e2e("heap_mb", a.heapMB.median(), len(a.heapMB))

	for _, rate := range cfg.rates {
		s := a.ack[rate]
		r.named(fmt.Sprintf("ingest.ack_ms.p50@%.0frps", rate), s.median(), "ms", len(s))
		r.named(fmt.Sprintf("ingest.ack_ms.p99@%.0frps", rate), s.pct(0.99), "ms", len(s))
	}
	r.named("ingest.capacity_rps", a.capAccepted/a.capSec, "1/s", int(a.capAccepted))
	r.named("ingest.shed_frac", ratio(a.prom.shed, a.prom.submitted+a.prom.shed), "fraction", int(a.prom.submitted+a.prom.shed))
	r.named("ingest.gen_late_ms.p99", a.lateMS.pct(0.99), "ms", len(a.lateMS))
	r.named("ingest.status_ms.p50", a.statusMS.median(), "ms", len(a.statusMS))
	r.named("ingest.status_ms.p99", a.statusMS.pct(0.99), "ms", len(a.statusMS))
	r.named("slot_ms.p50", a.tickMS.median(), "ms", len(a.tickMS))
	r.named("slot_ms.p99", a.tickMS.pct(0.99), "ms", len(a.tickMS))
	r.named("reward_per_slot", ratio(a.openReward, a.openTicks), "reward/slot", int(a.openTicks))
	r.named("admit_frac", ratio(a.openAdmitted, a.openAcc), "fraction", int(a.openAcc))
}

func (a *ingestAgg) emitLayers(r *report) {
	r.layer("cluster.submit_batch_us.p50", a.submitUS.median(), len(a.submitUS))
	r.layer("cluster.submit_batch_us.p99", a.submitUS.pct(0.99), len(a.submitUS))
	r.layer("cluster.flush_us.p50", a.flushUS.median(), len(a.flushUS))
	r.layer("cluster.flush_us.p99", a.flushUS.pct(0.99), len(a.flushUS))
	r.layer("cluster.tick_ms.plain.p50", a.plainMS.median(), len(a.plainMS))
	r.layer("cluster.tick_ms.plain.p99", a.plainMS.pct(0.99), len(a.plainMS))
	r.layer("cluster.tick_ms.sweep.p50", a.sweepMS.median(), len(a.sweepMS))
	r.layer("cluster.tick_ms.sweep.p99", a.sweepMS.pct(0.99), len(a.sweepMS))
	// Intake-only layers: reported by name while ingest stays out of
	// BENCHMARK.json (see NOTES.md, finding 4).
	r.named("cluster.status_us.p50", a.statusUS.median(), "us", len(a.statusUS))
	r.named("cluster.status_us.p99", a.statusUS.pct(0.99), "us", len(a.statusUS))
	r.named("serve.saturated_frac", ratio(a.saturated, a.posts), "fraction", int(a.posts))
	r.named("serve.decode_batch_us.p50", a.decodeUS.median(), "us", len(a.decodeUS))
	a.prom.emit(r)
	a.layers.emit(r)
	r.gcLayers(&a.gc, float64(a.ticks))
}

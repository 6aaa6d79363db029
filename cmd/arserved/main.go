// Command arserved is the real-time admission daemon for AR offloading:
// it serves the repo's schedulers (the paper's DynamicRR by default)
// behind an HTTP JSON API, advancing one scheduling slot per wall-clock
// tick against live per-station capacity, checkpointing bandit arm
// statistics and in-flight assignments so a restart resumes learning.
//
// Usage:
//
//	arserved -addr :8080 -stations 20 -tick 50ms -checkpoint state.json
//	arserved -scheduler ocorp -trace
//	arserved -replay trace.json -requests-per-30fps 1
//
// Endpoints: POST /v1/requests, GET /v1/requests/{id}, /metrics,
// /healthz, /readyz. SIGTERM or SIGINT triggers a graceful drain: intake
// closes, in-flight streams run to departure (bounded by -drain-timeout),
// a final checkpoint is written, and the process exits 0.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux, served only behind -pprof-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mecoffload/internal/bandit"
	"mecoffload/internal/cluster"
	"mecoffload/internal/mec"
	"mecoffload/internal/oracle"
	"mecoffload/internal/prof"
	"mecoffload/internal/rnd"
	"mecoffload/internal/scenario"
	"mecoffload/internal/serve"
	"mecoffload/internal/sim"
	"mecoffload/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "arserved: %v\n", err)
		os.Exit(1)
	}
}

// banditKappa is the arm count a -bandit policy is built with; it
// matches DynamicRR's default threshold discretization.
const banditKappa = 16

// HTTP server timeouts. Without them a client that trickles its headers,
// stalls mid-body, or parks an idle keep-alive connection holds a
// goroutine and a file descriptor forever. ReadTimeout covers the whole
// request including the body, so it leaves room for the largest NDJSON
// batch over a slow link; no WriteTimeout is set, because a pprof CPU
// profile legitimately streams for as long as it was asked to.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 120 * time.Second
)

// newHTTPServer wraps h in a server with the daemon's timeouts.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("arserved", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:8080", "HTTP listen address")
		schedName  = fs.String("scheduler", "dynamicrr", "scheduler: dynamicrr, ocorp, greedy, heukkt")
		banditSpec = fs.String("bandit", "", "arm policy for dynamicrr: se, ucb1, sw-ucb[:w], d-ucb[:g], exp3s[:g[,a]], restart:<inner> (empty = se; a restored checkpoint wins)")
		stations   = fs.Int("stations", 20, "number of base stations (generated topology)")
		scenIn     = fs.String("scenario-in", "", "load the topology from this scenario JSON instead of generating one")
		seed       = fs.Int64("seed", 42, "random seed")
		tick       = fs.Duration("tick", 50*time.Millisecond, "wall-clock length of one scheduling slot")
		slotMS     = fs.Float64("slot-ms", mec.DefaultSlotLengthMS, "model slot length in milliseconds")
		shards     = fs.Int("shards", 4, "state shards")
		ckptPath   = fs.String("checkpoint", "", "checkpoint file (restore on start, rewrite periodically)")
		ckptEvery  = fs.Int("checkpoint-every", 50, "ticks between checkpoints")
		ckptAsync  = fs.Bool("checkpoint-async", true, "write periodic checkpoints on a background goroutine (copy-on-write snapshot off the slot clock); shutdown and explicit checkpoints are always synchronous")
		trace      = fs.Bool("trace", false, "print one line per slot (arsim trace format)")
		drainAfter = fs.Duration("drain-timeout", 10*time.Second, "max wait for in-flight streams on shutdown")
		replay     = fs.String("replay", "", "replay a workload trace JSON as a load generator instead of serving HTTP")
		replayRate = fs.Int("requests-per-30fps", 1, "replay: requests per second per 30 fps of trace")
		replayDump = fs.String("replay-dump", "", "replay: write per-slot admission decisions as JSON to this file")
		workers    = fs.Int("workers", 1, "concurrent component solves per slot LP (dynamicrr only; decisions are identical for every value)")
		clShards   = fs.Int("cluster-shards", 0, "run N scheduler shards behind the cluster router (0 = single engine)")
		pprofAddr  = fs.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060); empty disables")
		blockRate  = fs.Int("block-profile", 0, "blocking-profile sample threshold in ns for /debug/pprof/block (1 = every event, 0 = off; needs -pprof-addr)")
		mutexFrac  = fs.Int("mutex-profile", 0, "mutex-contention sample fraction for /debug/pprof/mutex (1 = every contended lock, 0 = off; needs -pprof-addr)")

		ringCap    = fs.Int("ring", 0, "batched-ingest ring capacity (0 = default 4096, rounded up to a power of two)")
		stageCap   = fs.Int("stage", 0, "batched-ingest overflow-stage capacity before reward-aware shedding (0 = default 4096)")
		maxPending = fs.Int("max-pending", 0, "pending requests before the loop stops draining the ingest ring (0 = default 16384)")

		loadgen        = fs.Bool("loadgen", false, "drive the batched intake at a fixed offered load instead of serving HTTP")
		offered        = fs.Int("offered", 100000, "loadgen: offered load in requests per second")
		loadDuration   = fs.Duration("load-duration", 2*time.Second, "loadgen: generation window")
		loadBatch      = fs.Int("load-batch", 256, "loadgen: requests per batch submit")
		loadOut        = fs.String("load-out", "", "loadgen: write a benchjson-format summary to this file")
		loadMaxP99     = fs.Float64("load-max-p99-ms", 0, "loadgen: fail when batch-submit p99 exceeds this many milliseconds (0 disables)")
		loadMinOffered = fs.Float64("load-min-offered-frac", 0, "loadgen: fail when the achieved offered rate falls below this fraction of -offered (0 disables)")
		loadMinAdmit   = fs.Uint64("load-min-admitted", 0, "loadgen: fail when fewer requests reached the planner (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var net_ *mec.Network
	if *scenIn != "" {
		f, err := os.Open(*scenIn)
		if err != nil {
			return err
		}
		n, _, rerr := scenario.Read(f)
		cerr := f.Close()
		if rerr != nil {
			return rerr
		}
		if cerr != nil {
			return cerr
		}
		net_ = n
	} else {
		n, err := mec.RandomNetwork(*stations, 3000, 3600, rnd.New(*seed, "topology"))
		if err != nil {
			return err
		}
		net_ = n
	}

	// Contention profiles are sampled from process start so an epoch
	// barrier or clock-lock stall is visible the moment the pprof
	// endpoint is scraped — both default off because sampling every
	// blocking event costs on the hot path.
	prof.EnableContentionProfiles(*blockRate, *mutexFrac)

	if *pprofAddr != "" {
		// Opt-in profiling endpoint, on its own listener so the debug
		// surface never shares a port with the public API.
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		psrv := newHTTPServer(http.DefaultServeMux)
		go func() {
			if err := psrv.Serve(pln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(out, "arserved: pprof server: %v\n", err)
			}
		}()
		defer psrv.Close()
		fmt.Fprintf(out, "arserved: pprof on http://%s/debug/pprof/\n", pln.Addr())
	}

	// The daemon only forwards the worker count and an optional -bandit
	// arm policy. A checkpointed bandit snapshot overrides the policy on
	// restore, so learning resumes rather than restarting.
	drrOpts := sim.DynamicRROptions{Workers: *workers}
	if *banditSpec != "" {
		// Validate the spec up front so a typo fails at startup, then
		// pass the spec (not an instance) so cluster shards each parse
		// their own policy.
		if _, err := bandit.Parse(*banditSpec, banditKappa, 0); err != nil {
			return err
		}
		drrOpts.Kappa = banditKappa
		drrOpts.PolicySpec = *banditSpec
		drrOpts.PolicySeed = rnd.Derive(*seed, "bandit:"+*banditSpec)
	}

	cfg := serve.Config{
		Net:             net_,
		SchedulerName:   *schedName,
		DynamicRR:       drrOpts,
		SlotLengthMS:    *slotMS,
		Rng:             rnd.New(*seed, "serve"),
		Shards:          *shards,
		CheckpointPath:  *ckptPath,
		CheckpointEvery: *ckptEvery,
		AsyncCheckpoint: *ckptAsync,
		RingCapacity:    *ringCap,
		StageCapacity:   *stageCap,
		MaxPending:      *maxPending,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(out, format+"\n", a...)
		},
	}
	if *trace {
		cfg.TraceWriter = out
	}

	if *clShards > 0 {
		if *loadgen {
			return errors.New("-loadgen does not support -cluster-shards; drive the cluster over HTTP or use -replay")
		}
		ccfg := cluster.Config{
			Net:             net_,
			Shards:          *clShards,
			SchedulerName:   *schedName,
			DynamicRR:       drrOpts,
			SlotLengthMS:    *slotMS,
			Seed:            *seed,
			CheckpointPath:  *ckptPath,
			CheckpointEvery: *ckptEvery,
			AsyncCheckpoint: *ckptAsync,
			RingCapacity:    *ringCap,
			StageCapacity:   *stageCap,
			MaxPending:      *maxPending,
			Logf:            cfg.Logf,
		}
		if *replay != "" {
			return runClusterReplay(ccfg, *replay, *replayDump, out)
		}
		ccfg.TickInterval = *tick
		return runClusterServe(ccfg, *addr, *drainAfter, out)
	}

	if *loadgen {
		if *replay != "" {
			return errors.New("-loadgen and -replay are mutually exclusive")
		}
		// The load generator runs against the real wall-clock engine: the
		// internal ticker schedules slots while batches arrive, exactly
		// the contention profile of the HTTP daemon.
		cfg.TickInterval = *tick
		eng, err := serve.New(cfg)
		if err != nil {
			return err
		}
		eng.Start()
		defer func() { _ = eng.Stop() }()
		return runLoadgen(eng, *offered, *loadDuration, *loadBatch, loadGates{
			MaxP99MS:       *loadMaxP99,
			MinOfferedFrac: *loadMinOffered,
			MinAdmitted:    *loadMinAdmit,
		}, *loadOut, out)
	}

	if *replay != "" {
		// Replay mode keeps the manual clock (TickInterval zero): model
		// time advances as fast as the scheduler runs.
		var dump *oracle.ReplayDump
		if *replayDump != "" {
			// The observer runs on the loop goroutine; runReplay's drain
			// waits for that goroutine to exit, so reading the dump after
			// it returns is race-free.
			dump = &oracle.ReplayDump{}
			cfg.SlotObserver = func(rep sim.SlotReport) {
				if len(rep.Admitted) > 0 {
					dump.Slots = append(dump.Slots, oracle.SlotAdmissions{
						Slot:     rep.Slot,
						Admitted: append([]int(nil), rep.Admitted...),
						Reward:   rep.Reward,
					})
				}
				dump.TotalReward += rep.Reward
			}
		}
		eng, err := serve.New(cfg)
		if err != nil {
			return err
		}
		eng.Start()
		defer func() { _ = eng.Stop() }()
		if strings.HasSuffix(*replay, ".ndjson") {
			// NDJSON traces replay through the batched intake: one
			// request per line, blank lines marking slot boundaries —
			// the same wire format as POST /v1/requests:batch.
			if err := runReplayNDJSON(eng, *replay, out); err != nil {
				return err
			}
		} else if err := runReplay(eng, *replay, *slotMS, *replayRate, rnd.New(*seed, "replay"), out); err != nil {
			return err
		}
		if dump != nil {
			<-eng.Done()
			dump.Submitted = int(eng.Metrics().Submitted.Load())
			data, err := json.MarshalIndent(dump, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(*replayDump, append(data, '\n'), 0o644); err != nil {
				return err
			}
		}
		return nil
	}

	cfg.TickInterval = *tick
	eng, err := serve.New(cfg)
	if err != nil {
		return err
	}
	eng.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := newHTTPServer(serve.Handler(eng))
	httpDone := make(chan error, 1)
	go func() { httpDone <- srv.Serve(ln) }()

	// Arm signal handling before announcing the address, so anything that
	// reacts to the announcement can already deliver SIGTERM safely.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigs)
	fmt.Fprintf(out, "arserved: %s scheduler, %d stations, listening on %s\n",
		eng.SchedulerName(), net_.NumStations(), ln.Addr())

	select {
	case sig := <-sigs:
		fmt.Fprintf(out, "arserved: %v, draining\n", sig)
	case err := <-httpDone:
		_ = eng.Stop()
		return fmt.Errorf("http server: %w", err)
	case <-eng.Done():
		// The engine loop exited on its own (a drain requested elsewhere).
	}

	// Graceful drain: refuse new work, let streams depart, checkpoint.
	if err := eng.Drain(); err != nil && !errors.Is(err, serve.ErrStopped) {
		fmt.Fprintf(out, "arserved: drain: %v\n", err)
	}
	select {
	case <-eng.Done():
		fmt.Fprintln(out, "arserved: drained cleanly")
	case <-time.After(*drainAfter):
		fmt.Fprintf(out, "arserved: drain timeout after %v, stopping with streams in flight\n", *drainAfter)
	}
	if err := eng.Stop(); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	return nil
}

// runReplay feeds a captured frame trace through the daemon core as a
// load generator: every trace second maps to 1000/slotMS slots, with a
// request volume proportional to the second's frame rate and a demand
// distribution pinned to the second's scaled pipeline rate.
func runReplay(eng *serve.Engine, path string, slotMS float64, perThirtyFPS int, rng *rand.Rand, out io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	tr, rerr := workload.ReadTrace(f)
	cerr := f.Close()
	if rerr != nil {
		return rerr
	}
	if cerr != nil {
		return cerr
	}

	rates := tr.ScaleToRate(workload.DefaultMinRate, workload.DefaultMaxRate)
	slotsPerSecond := int(1000/slotMS + 0.5)
	if slotsPerSecond < 1 {
		slotsPerSecond = 1
	}
	submitted := 0
	for s, fps := range tr.FPS {
		n := perThirtyFPS * fps / 30
		if n < 1 {
			n = 1
		}
		for k := 0; k < n; k++ {
			unit := workload.DefaultMinUnitReward +
				rng.Float64()*(workload.DefaultMaxUnitReward-workload.DefaultMinUnitReward)
			spec := serve.RequestSpec{
				AccessStation: submitted % eng.NumStations(),
				Outcomes: []serve.OutcomeSpec{
					{RateMBs: rates[s], Prob: 1, Reward: unit * rates[s]},
				},
			}
			if _, _, err := eng.Submit(spec); err != nil {
				return fmt.Errorf("replay second %d: %w", s, err)
			}
			submitted++
		}
		for k := 0; k < slotsPerSecond; k++ {
			if err := eng.Tick(); err != nil {
				return err
			}
		}
	}
	// Drain the tail so every admitted stream departs before the summary.
	if err := eng.Drain(); err != nil {
		return err
	}
	for eng.Alive() {
		if err := eng.Tick(); err != nil {
			if errors.Is(err, serve.ErrStopped) {
				break
			}
			return err
		}
	}
	m := eng.Metrics()
	fmt.Fprintf(out, "replayed %d trace seconds: submitted=%d served=%d evicted=%d expired=%d reward=$%.0f over %d slots\n",
		len(tr.FPS), m.Submitted.Load(), m.Served.Load(), m.Evicted.Load(), m.Expired.Load(),
		m.Reward.Load(), m.Ticks.Load())
	return nil
}

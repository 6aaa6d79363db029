// Command perfbench is the repository's benchmark: it generates every
// input from a seed, drives the public API of the cluster, serve, sim and
// core packages and the mecoffload facade, checks that the decisions are
// correct, and prints end-to-end metrics (or, with -trace 1, per-layer
// metrics from spans and hooks recorded around the calls it makes).
//
//	go run . -workload steady -seed 1 -seconds 10 -trace 0
//
// Workloads: steady, cluster, ingest, repro, or all. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. See NOTES.md for what each workload and metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd lists the metrics every workload reports with -trace 0; the
// NOTES.md table maps each onto the workload's own quantity.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_ms.p50", "ms"},
	{"latency_ms.p99", "ms"},
	{"requests_per_s", "1/s"},
	{"reward_per_slot", "reward/slot"},
	{"admit_frac", "fraction"},
	{"heap_mb", "MB"},
}

// perLayer lists the metrics every workload reports with -trace 1. A
// layer a workload does not exercise reads 0 with 0 samples.
var perLayer = []metricDef{
	{"cluster.submit_batch_us.p50", "us"},
	{"cluster.submit_batch_us.p99", "us"},
	{"cluster.flush_us.p50", "us"},
	{"cluster.flush_us.p99", "us"},
	{"cluster.tick_ms.plain.p50", "ms"},
	{"cluster.tick_ms.plain.p99", "ms"},
	{"cluster.tick_ms.sweep.p50", "ms"},
	{"cluster.tick_ms.sweep.p99", "ms"},
	{"cluster.tick_ms.ckpt.p50", "ms"},
	{"cluster.barrier_ms.p50", "ms"},
	{"cluster.router.spanning_frac", "fraction"},
	{"cluster.sweep.worklist_mean", "count"},
	{"cluster.sweep.commit_ratio", "fraction"},
	{"cluster.migrations_per_sweep", "count"},
	{"ckpt.dropped_frac", "fraction"},
	{"ckpt.wait_ms", "ms"},
	{"ckpt.bytes", "bytes"},
	{"serve.slot_ms.mean", "ms"},
	{"serve.intake_ms.mean", "ms"},
	{"serve.shed_frac", "fraction"},
	{"serve.expired_frac", "fraction"},
	{"serve.evicted_frac", "fraction"},
	{"serve.pending_depth.mean", "count"},
	{"bandit.select_us.p50", "us"},
	{"bandit.update_us.p50", "us"},
	{"bandit.arm_switch_frac", "fraction"},
	{"sim.pre_schedule_ms.p50", "ms"},
	{"sim.schedule_settle_ms.p50", "ms"},
	{"sim.schedule_settle_ms.p99", "ms"},
	{"sim.post_step_ms.p50", "ms"},
	{"lp.solves_per_slot", "count"},
	{"lp.warm_hit_ratio", "fraction"},
	{"core.components.clean_frac", "fraction"},
	{"core.components.fastpath_frac", "fraction"},
	{"core.appro_ms.r100", "ms"},
	{"core.appro_ms.r200", "ms"},
	{"core.appro_ms.r300", "ms"},
	{"core.heu_ms.r100", "ms"},
	{"core.heu_ms.r200", "ms"},
	{"core.heu_ms.r300", "ms"},
	{"core.audit_ms", "ms"},
	{"sim.run_ms", "ms"},
	{"go.gc_cycles_per_1k_slots", "count"},
	{"go.gc_pause_ms.p99", "ms"},
	{"go.alloc_mb_per_1k_slots", "MB"},
	{"trace.overhead_pct.latency_p50", "%"},
	{"trace.overhead_pct.latency_p99", "%"},
	{"trace.overhead_pct.throughput", "%"},
	{"trace.tick_coverage", "fraction"},
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// metric is one reported value with its unit and the number of samples
// behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// report is everything one workload run measured, with provenance.
type report struct {
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Params    map[string]any      `json:"params"`
	EndToEnd  map[string]metric   `json:"end_to_end,omitempty"`
	Named     map[string]metric   `json:"named,omitempty"`
	PerLayer  map[string]metric   `json:"per_layer,omitempty"`
	Spans     map[string]spanJSON `json:"spans,omitempty"`
	Passes    []passStat          `json:"passes,omitempty"`
	SpanFile  string              `json:"span_file,omitempty"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Error     string              `json:"error,omitempty"`
	cover     string              // span name whose child coverage is reported
}

// passStat is one timed pass's throughput and latency percentiles.
type passStat struct {
	Throughput float64 `json:"requests_per_s"`
	P50        float64 `json:"latency_ms_p50"`
	P99        float64 `json:"latency_ms_p99"`
}

type spanJSON struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func newReport(workload string) *report {
	return &report{
		Workload: workload,
		EndToEnd: map[string]metric{},
		Named:    map[string]metric{},
		PerLayer: map[string]metric{},
		cover:    "cluster.Tick",
	}
}

func (r *report) e2e(name string, v float64, n int) {
	r.EndToEnd[name] = metric{v, unitOf(endToEnd, name), n}
}

func (r *report) layer(name string, v float64, n int) {
	r.PerLayer[name] = metric{v, unitOf(perLayer, name), n}
}

// named records a workload-specific metric under the name the design
// documents use (slot_ms.p50, ingest.ack_ms.p99, repro_s, ...).
func (r *report) named(name string, v float64, unit string, n int) {
	r.Named[name] = metric{v, unit, n}
}

func (r *report) count(attempted, failed int64) {
	r.Attempted += attempted
	r.Failed += failed
}

// overhead reports the traced passes against the untraced ones: the
// relative change of latency p50/p99 and the relative throughput loss.
func (r *report) overhead(plain, traced samples, plainTput, tracedTput float64) {
	pct := func(a, b float64) float64 { return 100 * ratio(b-a, a) }
	r.layer("trace.overhead_pct.latency_p50", pct(plain.median(), traced.median()), len(traced))
	r.layer("trace.overhead_pct.latency_p99", pct(plain.pct(0.99), traced.pct(0.99)), len(traced))
	r.layer("trace.overhead_pct.throughput", -pct(plainTput, tracedTput), len(traced))
}

// gcLayers reports the benchmark process's runtime activity during the
// measured intervals, per 1000 slots of the workload.
func (r *report) gcLayers(d *goDelta, slots float64) {
	n, p99 := d.pauses()
	r.layer("go.gc_cycles_per_1k_slots", 1000*ratio(d.cycles, slots), int(slots))
	r.layer("go.gc_pause_ms.p99", p99, int(n))
	r.layer("go.alloc_mb_per_1k_slots", 1000*ratio(d.allocMB, slots), int(slots))
}

// runCtx carries one run's settings to a workload.
type runCtx struct {
	seed    int64
	budget  time.Duration
	trace   bool
	short   bool
	tr      *tracer
	workDir string
}

// phases runs timed passes for the budget; with tracing, half the budget
// runs untraced (the reference for the tracing overhead) and half traced.
// Passes are numbered 0, 1, ...; a phase ends at the first multiple of
// cycle at or after its budget, so a workload that rotates through cycle
// input sets weighs each set equally. Short mode runs one cycle.
func (x *runCtx) phases(cycle int, pass func(traced bool, i int) error) error {
	budget := x.budget
	if x.trace {
		budget /= 2
	}
	loop := func(traced bool) error {
		start := time.Now()
		for i := 0; i == 0 || i%cycle != 0 || (!x.short && time.Since(start) < budget); i++ {
			if err := pass(traced, i); err != nil {
				return err
			}
		}
		return nil
	}
	if err := loop(false); err != nil || !x.trace {
		return err
	}
	x.tr.on = true
	defer func() { x.tr.on = false }()
	return loop(true)
}

type workloadDef struct {
	name string
	run  func(*runCtx) (*report, error)
}

var workloads = []workloadDef{
	{"steady", func(x *runCtx) (*report, error) { return runSlots(steadyConfig, x) }},
	{"cluster", func(x *runCtx) (*report, error) { return runSlots(clusterConfig, x) }},
	{"ingest", runIngest},
	{"repro", runRepro},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the line printed last on standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "steady, cluster, ingest, repro, or all")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 30, "measured seconds per workload")
	traceFlag := fs.Int("trace", 0, "1: report per-layer metrics from a traced run instead of end-to-end metrics")
	short := fs.Bool("short", false, "one short pass per phase (self-test)")
	out := fs.String("out", "", "also write the full reports (provenance, named metrics, sample counts, span summary) as JSON to this file")
	workDir := fs.String("workdir", filepath.Join(".bench_build", "work"), "directory for checkpoints and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var selected []workloadDef
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload steady|cluster|ingest|repro|all, -trace 0|1 and -seconds > 0\n")
		return 2
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	// The program installs oracle.EngineChecker on every engine when
	// MEC_ORACLE is set; only the gated pass may run it.
	os.Unsetenv("MEC_ORACLE")

	prov := provenance(*seed, *seconds, *traceFlag)
	provJSON, _ := json.Marshal(prov)
	fmt.Fprintln(stdout, "# perfbench", string(provJSON))
	res := result{Correct: true, Metrics: map[string]resultValue{}}
	var reports []*report
	for _, w := range selected {
		x := &runCtx{
			seed: *seed, budget: time.Duration(*seconds * float64(time.Second)),
			trace: *traceFlag == 1, short: *short, tr: newTracer(), workDir: *workDir,
		}
		r, err := w.run(x)
		r.Seed = *seed
		if err == nil && x.trace {
			err = r.finishTrace(x, *workDir)
		}
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		if err != nil {
			r.Error = err.Error()
			res.Correct = false
			fmt.Fprintf(stdout, "%s FAILED: %v\n", w.name, err)
		} else {
			printReport(stdout, r, x.trace)
			defs, vals := endToEnd, r.EndToEnd
			if x.trace {
				defs, vals = perLayer, r.PerLayer
			}
			for _, d := range defs {
				key := d.name
				if len(selected) > 1 {
					key = w.name + "." + d.name
				}
				res.Metrics[key] = resultValue{vals[d.name].Value, d.unit}
			}
		}
		reports = append(reports, r)
	}
	if !res.Correct {
		res.Metrics = map[string]resultValue{}
	}
	if *out != "" {
		if err := writeJSON(*out, map[string]any{"provenance": prov, "reports": reports}); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// finishTrace fills the per-layer metrics a workload did not exercise
// with 0, adds the span coverage of each Tick, and writes the spans out.
func (r *report) finishTrace(x *runCtx, dir string) error {
	stats, cover := x.tr.summarize(r.cover)
	r.layer("trace.tick_coverage", cover.mean(), len(cover))
	for _, d := range perLayer {
		if _, ok := r.PerLayer[d.name]; !ok {
			r.PerLayer[d.name] = metric{0, d.unit, 0}
		}
	}
	r.Spans = map[string]spanJSON{}
	for name, s := range stats {
		r.Spans[name] = spanJSON{s.count, s.totalMS, s.selfMS}
	}
	r.SpanFile = filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.tsv", r.Workload, r.Seed))
	return x.tr.writeTSV(r.SpanFile)
}

func printReport(w io.Writer, r *report, traced bool) {
	line := func(kind, name string, m metric) {
		fmt.Fprintf(w, "%-8s %-10s %-34s %14.6g %-12s n=%d\n", r.Workload, kind, name, m.Value, m.Unit, m.N)
	}
	params, _ := json.Marshal(r.Params)
	fmt.Fprintf(w, "%-8s params     %s\n", r.Workload, params)
	for _, d := range endToEnd {
		if m, ok := r.EndToEnd[d.name]; ok {
			line("e2e", d.name, m)
		}
	}
	for _, k := range sortedKeys(r.Named) {
		line("named", k, r.Named[k])
	}
	if traced {
		for _, d := range perLayer {
			line("layer", d.name, r.PerLayer[d.name])
		}
		for _, k := range sortedKeys(r.Spans) {
			s := r.Spans[k]
			fmt.Fprintf(w, "%-8s span       %-34s count=%d total_ms=%.3f self_ms=%.3f\n", r.Workload, k, s.Count, s.TotalMS, s.SelfMS)
		}
		fmt.Fprintf(w, "%-8s spans      %s\n", r.Workload, r.SpanFile)
	}
	fmt.Fprintf(w, "%-8s ops        attempted=%d failed=%d error_frac=%g\n", r.Workload, r.Attempted, r.Failed, ratio(float64(r.Failed), float64(r.Attempted)))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// provenance names the machine, toolchain and commit a result came from.
func provenance(seed int64, seconds float64, trace int) map[string]any {
	commit := "unknown"
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0), "numcpu": runtime.NumCPU(),
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"commit": commit, "seed": seed, "seconds": seconds, "trace": trace,
		"started": time.Now().UTC().Format(time.RFC3339),
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

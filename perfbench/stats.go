package main

import (
	"bufio"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
)

// samples is a growable list of measurements in one unit.
type samples []float64

// pct returns the nearest-rank p-quantile (0 < p <= 1); 0 when empty.
func (s samples) pct(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := slices.Clone(s)
	slices.Sort(c)
	i := int(math.Ceil(p*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return c[i]
}

func (s samples) median() float64 { return s.pct(0.5) }

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t / float64(len(s))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// promText is the exposition cluster.WriteProm renders, keyed by series
// name ("..._sum" and "..._count" name a histogram's series); label
// filters are substrings such as `result="shed"`.
type promText map[string][]promSample

type promSample struct {
	labels string
	value  float64
}

func parseProm(r io.Reader) promText {
	out := promText{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name, labels := line[:sp], ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, labels = name[:i], name[i:]
		}
		out[name] = append(out[name], promSample{labels, v})
	}
	return out
}

// sum adds every series of a family whose labels contain all filters.
func (p promText) sum(name string, filters ...string) float64 {
	t := 0.0
outer:
	for _, s := range p[name] {
		for _, f := range filters {
			if !strings.Contains(s.labels, f) {
				continue outer
			}
		}
		t += s.value
	}
	return t
}

// max returns the largest series of a family (0 when absent).
func (p promText) max(name string) float64 {
	m := 0.0
	for _, s := range p[name] {
		m = math.Max(m, s.value)
	}
	return m
}

// goStats is a runtime/metrics reading of the benchmark process: GC
// cycles, allocated bytes and the GC stop-the-world pause histogram.
type goStats struct {
	cycles, allocBytes uint64
	pauses             *metrics.Float64Histogram
}

var goSampleNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/sched/pauses/total/gc:seconds",
}

func readGo() goStats {
	s := make([]metrics.Sample, len(goSampleNames))
	for i, n := range goSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	g := goStats{cycles: s[0].Value.Uint64(), allocBytes: s[1].Value.Uint64()}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		g.pauses = s[2].Value.Float64Histogram()
	}
	return g
}

// goDelta accumulates the runtime activity of measured intervals.
type goDelta struct {
	cycles, allocMB float64
	buckets         []float64
	counts          []uint64
}

// add accumulates the activity between readings a and b.
func (d *goDelta) add(a, b goStats) {
	d.cycles += float64(b.cycles - a.cycles)
	d.allocMB += float64(b.allocBytes-a.allocBytes) / (1 << 20)
	if a.pauses == nil || b.pauses == nil {
		return
	}
	if d.counts == nil {
		d.buckets = b.pauses.Buckets
		d.counts = make([]uint64, len(b.pauses.Counts))
	}
	for i := range d.counts {
		d.counts[i] += b.pauses.Counts[i] - a.pauses.Counts[i]
	}
}

// pauses returns the GC pause count and the upper bucket edge of the
// nearest-rank p99 pause in milliseconds.
func (d *goDelta) pauses() (n uint64, p99MS float64) {
	for _, c := range d.counts {
		n += c
	}
	if n == 0 {
		return 0, 0
	}
	rank := uint64(math.Ceil(0.99 * float64(n)))
	seen := uint64(0)
	for i, c := range d.counts {
		seen += c
		if seen >= rank {
			hi := d.buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = d.buckets[i]
			}
			return n, hi * 1e3
		}
	}
	return n, 0
}

// liveHeapMB returns the live heap after two forced collections: the
// first moves sync.Pool caches to their victim lists, the second frees
// them, so pooled scratch space does not count as live.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / (1 << 20)
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// promAgg accumulates the shard histograms and request counters that
// cluster.WriteProm exposes, over finished clusters.
type promAgg struct {
	slotSum, slotCount     float64
	intakeSum, intakeCount float64
	submitted, admitted    float64
	shed, expired, evicted float64
}

func (a *promAgg) add(p promText) {
	req := func(result string) float64 {
		return p.sum("arserved_cluster_requests_total", `result="`+result+`"`)
	}
	a.slotSum += p.sum("arserved_cluster_slot_duration_ms_sum")
	a.slotCount += p.sum("arserved_cluster_slot_duration_ms_count")
	a.intakeSum += p.sum("arserved_cluster_intake_latency_ms_sum")
	a.intakeCount += p.sum("arserved_cluster_intake_latency_ms_count")
	a.submitted += req("submitted")
	a.admitted += req("admitted")
	a.shed += req("shed")
	a.expired += req("expired")
	a.evicted += req("evicted")
}

// emit writes the serve-layer metrics: mean engine slot time and intake
// handoff latency from the shard histograms, and the request outcome
// shares (shed of all accepted, expired of those reaching the planner,
// evicted of those admitted).
func (a *promAgg) emit(r *report) {
	r.layer("serve.slot_ms.mean", ratio(a.slotSum, a.slotCount), int(a.slotCount))
	r.layer("serve.intake_ms.mean", ratio(a.intakeSum, a.intakeCount), int(a.intakeCount))
	r.layer("serve.shed_frac", ratio(a.shed, a.submitted+a.shed), int(a.submitted+a.shed))
	r.layer("serve.expired_frac", ratio(a.expired, a.submitted), int(a.submitted))
	r.layer("serve.evicted_frac", ratio(a.evicted, a.admitted), int(a.admitted))
}

package serve

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"

	"mecoffload/internal/core"
)

// slotDurationBucketsMS are the upper bounds (milliseconds) of the slot
// scheduling-latency histogram. The paper's slot is 50 ms; a healthy tick
// schedules in a fraction of that, so the buckets resolve the sub-slot
// range finely and the overload range coarsely.
var slotDurationBucketsMS = []float64{0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 1000}

// intakeLatencyBucketsMS resolve the batched-ingest handoff (pump
// enqueue to planner append). A healthy handoff completes well inside a
// tick; the coarse tail captures overload, where entries wait in the
// ring behind the MaxPending backpressure bound.
var intakeLatencyBucketsMS = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 500}

// counter is a monotonically increasing uint64 safe for concurrent use.
type counter struct{ v atomic.Uint64 }

func (c *counter) Add(n uint64) { c.v.Add(n) }
func (c *counter) Inc()         { c.v.Add(1) }
func (c *counter) Load() uint64 { return c.v.Load() }

// floatCounter accumulates a float64 total (realized reward) with a
// compare-and-swap loop over the bit pattern.
type floatCounter struct{ bits atomic.Uint64 }

func (f *floatCounter) Add(x float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + x)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *floatCounter) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// histogram is a fixed-bucket Prometheus-style histogram. Observe is
// called only by the engine loop; Load-side readers may race benignly
// between bucket and sum reads (standard for lock-free exposition).
type histogram struct {
	bounds []float64
	counts []atomic.Uint64
	sum    floatCounter
	total  counter
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds))}
}

func (h *histogram) Observe(x float64) {
	for i, b := range h.bounds {
		if x <= b {
			h.counts[i].Add(1)
		}
	}
	h.sum.Add(x)
	h.total.Inc()
}

// HistogramSnapshot is a point-in-time copy of one histogram, letting
// external expositions (the cluster's per-shard /metrics) render the
// engine's histograms under their own label sets.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
	Count  uint64
}

func (h *histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.sum.Load(),
		Count:  h.total.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// SlotDurationSnapshot copies the slot-duration histogram.
func (m *Metrics) SlotDurationSnapshot() HistogramSnapshot { return m.SlotDuration.snapshot() }

// IntakeLatencySnapshot copies the intake-latency histogram.
func (m *Metrics) IntakeLatencySnapshot() HistogramSnapshot { return m.IntakeLatency.snapshot() }

// Metrics is the daemon's metric surface. All fields are safe for
// concurrent read while the engine loop writes.
type Metrics struct {
	Submitted    counter // requests accepted into the intake queue
	Rejected     counter // requests refused at intake (draining)
	Admitted     counter // scheduler admissions (includes later evictions)
	Served       counter // admissions that survived settlement
	Evicted      counter // admissions evicted at realization or by overload
	Expired      counter // pending requests whose deadline became unreachable
	Departed     counter // streams that completed their hold and released
	Ticks        counter // scheduling slots executed
	Checkpoints  counter // checkpoints written
	SlotErrors   counter // slots whose scheduler returned an error
	Reward       floatCounter
	SlotDuration *histogram

	// Batched ingest path.
	Batches       counter    // SubmitBatch calls accepted by the pump
	BatchRequests counter    // requests carried by those batches
	Shed          counter    // requests dropped by reward-aware shedding
	Saturated     counter    // batches refused with ErrSaturated (503)
	IntakeLatency *histogram // pump enqueue -> planner append, ms

	// Gauges, written by the engine loop each tick.
	PendingDepth  atomic.Int64
	ActiveStreams atomic.Int64
	LastTickNano  atomic.Int64
	CurrentSlot   atomic.Int64
	// IntakeDepth is the ingest ring's depth; the staged-entry gauge
	// lives on the engine (stagedDepth) because the pump owns it.
	IntakeDepth atomic.Int64

	drainFlag atomic.Bool
}

// totals captures the cumulative counters for checkpointing, so a
// restarted daemon's /metrics stays cumulative across the restart.
func (m *Metrics) totals() Totals {
	return Totals{
		Submitted: m.Submitted.Load(),
		Rejected:  m.Rejected.Load(),
		Admitted:  m.Admitted.Load(),
		Served:    m.Served.Load(),
		Evicted:   m.Evicted.Load(),
		Expired:   m.Expired.Load(),
		Departed:  m.Departed.Load(),
		Ticks:     m.Ticks.Load(),
		Reward:    m.Reward.Load(),
		Batches:   m.Batches.Load(),
		BatchReqs: m.BatchRequests.Load(),
		Shed:      m.Shed.Load(),
		Saturated: m.Saturated.Load(),
	}
}

// restoreTotals seeds the cumulative counters from a checkpoint. Only
// valid on a fresh Metrics (counters are monotonic).
func (m *Metrics) restoreTotals(t Totals) {
	m.Submitted.v.Store(t.Submitted)
	m.Rejected.v.Store(t.Rejected)
	m.Admitted.v.Store(t.Admitted)
	m.Served.v.Store(t.Served)
	m.Evicted.v.Store(t.Evicted)
	m.Expired.v.Store(t.Expired)
	m.Departed.v.Store(t.Departed)
	m.Ticks.v.Store(t.Ticks)
	m.Reward.bits.Store(math.Float64bits(t.Reward))
	m.Batches.v.Store(t.Batches)
	m.BatchRequests.v.Store(t.BatchReqs)
	m.Shed.v.Store(t.Shed)
	m.Saturated.v.Store(t.Saturated)
}

// NewMetrics builds an empty metric set.
func NewMetrics() *Metrics {
	return &Metrics{
		SlotDuration:  newHistogram(slotDurationBucketsMS),
		IntakeLatency: newHistogram(intakeLatencyBucketsMS),
	}
}

// StationGauge is one station's exposed capacity state, assembled from
// the shard that owns it.
type StationGauge struct {
	Station     int
	UsedMHz     float64
	CapacityMHz float64
}

// WriteProm renders the metric set in Prometheus text exposition format
// (version 0.0.4). warmHits/warmMisses come from the scheduler's LP
// warm-start cache; staged is the pump's overflow-stage depth; stations
// come from the shards; inc carries the dirty-component tracker's
// counters (all zero until DynamicRR solved something), whose
// component-solve split shows how often the slot skipped the LP.
func (m *Metrics) WriteProm(w io.Writer, warmHits, warmMisses uint64, staged int64, stations []StationGauge, inc core.IncStats) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}

	p("# HELP arserved_requests_total AR offloading requests by terminal result.\n")
	p("# TYPE arserved_requests_total counter\n")
	p("arserved_requests_total{result=\"submitted\"} %d\n", m.Submitted.Load())
	p("arserved_requests_total{result=\"rejected\"} %d\n", m.Rejected.Load())
	p("arserved_requests_total{result=\"admitted\"} %d\n", m.Admitted.Load())
	p("arserved_requests_total{result=\"served\"} %d\n", m.Served.Load())
	p("arserved_requests_total{result=\"evicted\"} %d\n", m.Evicted.Load())
	p("arserved_requests_total{result=\"expired\"} %d\n", m.Expired.Load())
	p("arserved_requests_total{result=\"departed\"} %d\n", m.Departed.Load())
	p("arserved_requests_total{result=\"shed\"} %d\n", m.Shed.Load())

	p("# HELP arserved_reward_dollars_total Realized reward credited across all slots.\n")
	p("# TYPE arserved_reward_dollars_total counter\n")
	p("arserved_reward_dollars_total %g\n", m.Reward.Load())

	p("# HELP arserved_ticks_total Scheduling slots executed.\n")
	p("# TYPE arserved_ticks_total counter\n")
	p("arserved_ticks_total %d\n", m.Ticks.Load())

	p("# HELP arserved_checkpoints_total Checkpoints written to disk.\n")
	p("# TYPE arserved_checkpoints_total counter\n")
	p("arserved_checkpoints_total %d\n", m.Checkpoints.Load())

	p("# HELP arserved_slot_errors_total Slots whose scheduler returned an error.\n")
	p("# TYPE arserved_slot_errors_total counter\n")
	p("arserved_slot_errors_total %d\n", m.SlotErrors.Load())

	p("# HELP arserved_pending_requests Requests waiting in the admission queue.\n")
	p("# TYPE arserved_pending_requests gauge\n")
	p("arserved_pending_requests %d\n", m.PendingDepth.Load())

	p("# HELP arserved_batches_total Bulk intake batches accepted.\n")
	p("# TYPE arserved_batches_total counter\n")
	p("arserved_batches_total %d\n", m.Batches.Load())
	p("# HELP arserved_batch_requests_total Requests carried by accepted bulk batches.\n")
	p("# TYPE arserved_batch_requests_total counter\n")
	p("arserved_batch_requests_total %d\n", m.BatchRequests.Load())
	p("# HELP arserved_saturated_total Bulk batches refused because the ingest path was saturated.\n")
	p("# TYPE arserved_saturated_total counter\n")
	p("arserved_saturated_total %d\n", m.Saturated.Load())
	p("# HELP arserved_intake_ring_depth Entries waiting in the ingest ring.\n")
	p("# TYPE arserved_intake_ring_depth gauge\n")
	p("arserved_intake_ring_depth %d\n", m.IntakeDepth.Load())
	p("# HELP arserved_intake_staged_depth Entries waiting in the reward-sorted overflow stage.\n")
	p("# TYPE arserved_intake_staged_depth gauge\n")
	p("arserved_intake_staged_depth %d\n", staged)

	p("# HELP arserved_intake_latency_ms Batched-ingest handoff latency (pump enqueue to planner append).\n")
	p("# TYPE arserved_intake_latency_ms histogram\n")
	for i, b := range m.IntakeLatency.bounds {
		p("arserved_intake_latency_ms_bucket{le=\"%g\"} %d\n", b, m.IntakeLatency.counts[i].Load())
	}
	p("arserved_intake_latency_ms_bucket{le=\"+Inf\"} %d\n", m.IntakeLatency.total.Load())
	p("arserved_intake_latency_ms_sum %g\n", m.IntakeLatency.sum.Load())
	p("arserved_intake_latency_ms_count %d\n", m.IntakeLatency.total.Load())

	p("# HELP arserved_active_streams Streams currently occupying service instances.\n")
	p("# TYPE arserved_active_streams gauge\n")
	p("arserved_active_streams %d\n", m.ActiveStreams.Load())

	p("# HELP arserved_current_slot The engine's current scheduling slot.\n")
	p("# TYPE arserved_current_slot gauge\n")
	p("arserved_current_slot %d\n", m.CurrentSlot.Load())

	p("# HELP arserved_slot_duration_ms Scheduling latency of one slot in milliseconds.\n")
	p("# TYPE arserved_slot_duration_ms histogram\n")
	for i, b := range m.SlotDuration.bounds {
		p("arserved_slot_duration_ms_bucket{le=\"%g\"} %d\n", b, m.SlotDuration.counts[i].Load())
	}
	p("arserved_slot_duration_ms_bucket{le=\"+Inf\"} %d\n", m.SlotDuration.total.Load())
	p("arserved_slot_duration_ms_sum %g\n", m.SlotDuration.sum.Load())
	p("arserved_slot_duration_ms_count %d\n", m.SlotDuration.total.Load())

	p("# HELP arserved_lp_warmstart_total LP-PT warm-start basis lookups by outcome.\n")
	p("# TYPE arserved_lp_warmstart_total counter\n")
	p("arserved_lp_warmstart_total{outcome=\"hit\"} %d\n", warmHits)
	p("arserved_lp_warmstart_total{outcome=\"miss\"} %d\n", warmMisses)
	p("# HELP arserved_lp_warmstart_hit_ratio Fraction of LP-PT solves seeded from a previous basis.\n")
	p("# TYPE arserved_lp_warmstart_hit_ratio gauge\n")
	ratio := 0.0
	if total := warmHits + warmMisses; total > 0 {
		ratio = float64(warmHits) / float64(total)
	}
	p("arserved_lp_warmstart_hit_ratio %g\n", ratio)

	if inc != (core.IncStats{}) {
		p("# HELP arserved_component_solves_total Per-slot LP component decisions by path: clean replays the cached decision, local-ratio certifies and skips the LP, lp failed certification and solved the component LP.\n")
		p("# TYPE arserved_component_solves_total counter\n")
		p("arserved_component_solves_total{path=\"clean\"} %d\n", inc.CleanHits)
		p("arserved_component_solves_total{path=\"local-ratio\"} %d\n", inc.FastPath)
		p("arserved_component_solves_total{path=\"lp\"} %d\n", inc.FastFallback)
	}

	if len(stations) > 0 {
		sorted := append([]StationGauge(nil), stations...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a].Station < sorted[b].Station })
		p("# HELP arserved_station_used_mhz Realized MHz committed per base station.\n")
		p("# TYPE arserved_station_used_mhz gauge\n")
		for _, s := range sorted {
			p("arserved_station_used_mhz{station=\"%d\"} %g\n", s.Station, s.UsedMHz)
		}
		p("# HELP arserved_station_capacity_mhz Configured MHz capacity per base station.\n")
		p("# TYPE arserved_station_capacity_mhz gauge\n")
		for _, s := range sorted {
			p("arserved_station_capacity_mhz{station=\"%d\"} %g\n", s.Station, s.CapacityMHz)
		}
	}
	return err
}

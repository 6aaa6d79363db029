package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"slices"
	"sync"
	"time"

	"mecoffload/internal/core"
	"mecoffload/internal/oracle"
	"mecoffload/internal/sim"
)

// span is one traced interval, recorded by the benchmark around a call
// into the program or between two hook events. Times are nanoseconds
// since the tracer's origin; id is the slot, batch or pass number.
type span struct {
	name       string
	id         int64
	parent     int32
	start, end int64
}

// maxSpans bounds the in-memory trace; later spans are counted, not kept.
const maxSpans = 1 << 20

// tracer is the run's clock and keeps spans in memory until the run
// writes them out. Spans are kept only while on is set (the traced
// passes); the clock always runs.
type tracer struct {
	t0      time.Time
	on      bool
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now is the monotonic time since the run's origin, in nanoseconds.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add records a finished span and returns its index (-1 when not kept).
func (t *tracer) add(name string, id int64, parent int32, start, end int64) int32 {
	if !t.on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name, id, parent, start, end})
	return int32(len(t.spans) - 1)
}

// open records a span whose end is set later by close, so children can
// name it as their parent while it runs.
func (t *tracer) open(name string, id int64, parent int32, start int64) int32 {
	return t.add(name, id, parent, start, start)
}

func (t *tracer) close(i int32, end int64) {
	if i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].end = end
	t.mu.Unlock()
}

// spanStat is the per-name aggregate of a trace: count, total time and
// self time (each span minus the part of it its children cover).
type spanStat struct {
	count           int
	totalMS, selfMS float64
}

// summarize returns per-name aggregates and, for every span named
// coverName, the share of its duration that its children cover.
func (t *tracer) summarize(coverName string) (map[string]*spanStat, samples) {
	kids := make([][]int32, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	stats := map[string]*spanStat{}
	var cover samples
	for i, s := range t.spans {
		dur := float64(s.end - s.start)
		covered := t.union(s, kids[i])
		st := stats[s.name]
		if st == nil {
			st = &spanStat{}
			stats[s.name] = st
		}
		st.count++
		st.totalMS += dur / 1e6
		st.selfMS += (dur - covered) / 1e6
		if s.name == coverName && dur > 0 {
			cover = append(cover, covered/dur)
		}
	}
	return stats, cover
}

// union measures how much of parent p the child spans cover.
func (t *tracer) union(p span, kids []int32) float64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		c := t.spans[k]
		lo, hi := max(c.start, p.start), min(c.end, p.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	total, curLo, curHi := int64(0), int64(math.MinInt64), int64(math.MinInt64)
	for _, x := range iv {
		if x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	total += curHi - curLo
	return float64(total)
}

// writeTSV writes every kept span: index, parent, name, id, start and
// end in microseconds since the run's origin.
func (t *tracer) writeTSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "index\tparent\tname\tid\tstart_us\tend_us\n")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%.3f\t%.3f\n", i, s.parent, s.name, s.id, float64(s.start)/1e3, float64(s.end)/1e3)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stamp is one timed learner call on an engine goroutine.
type stamp struct {
	start, end int64
	arm        int
}

// check is one step-checker call: when it ran, on which engine, the
// queue the scheduler saw, and the scheduler's cumulative counters.
type check struct {
	at          int64
	eng         *sim.Engine
	pending     int
	warmHits    uint64
	warmMisses  uint64
	inc         core.IncStats
	isDynamicRR bool
}

// hooks collects timestamps from the program's public hooks: a timing
// wrapper around the threshold learner (DynamicRROptions.Learner), a
// timestamping sim.StepChecker, and the cluster's SlotObserver. They
// fire on engine goroutines; the stepping goroutine drains them after
// every Tick.
type hooks struct {
	tr       *tracer
	mu       sync.Mutex
	selects  []stamp
	updates  []stamp
	checks   []check
	observed int64
}

func (h *hooks) checker() sim.StepChecker {
	return func(e *sim.Engine, _ *core.Result, _ sim.SlotReport, info sim.StepInfo) error {
		c := check{at: h.tr.now(), eng: e, pending: len(info.Pending)}
		if d, ok := info.Sched.(*sim.DynamicRR); ok {
			c.isDynamicRR = true
			c.warmHits, c.warmMisses = d.Warm().Stats()
			c.inc = d.IncStats()
		}
		h.mu.Lock()
		h.checks = append(h.checks, c)
		h.mu.Unlock()
		return nil
	}
}

func (h *hooks) observe() {
	t := h.tr.now()
	h.mu.Lock()
	h.observed = t
	h.mu.Unlock()
}

// take returns and clears everything recorded since the last take.
func (h *hooks) take() (sel, upd []stamp, chk []check, observed int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	sel, upd, chk, observed = h.selects, h.updates, h.checks, h.observed
	h.selects, h.updates, h.checks, h.observed = nil, nil, nil, 0
	return
}

// timedLearner wraps the production threshold learner and timestamps
// each call; it forwards every call unchanged, so decisions do not move
// (the correctness gate re-checks this on every traced pass).
type timedLearner struct {
	inner sim.ThresholdLearner
	h     *hooks
}

func (l timedLearner) SelectValue() (int, float64) {
	s := l.h.tr.now()
	k, v := l.inner.SelectValue()
	e := l.h.tr.now()
	l.h.mu.Lock()
	l.h.selects = append(l.h.selects, stamp{s, e, k})
	l.h.mu.Unlock()
	return k, v
}

func (l timedLearner) Update(k int, reward float64) {
	s := l.h.tr.now()
	l.inner.Update(k, reward)
	e := l.h.tr.now()
	l.h.mu.Lock()
	l.h.updates = append(l.h.updates, stamp{s, e, k})
	l.h.mu.Unlock()
}

// productionLearner builds the learner sim.NewDynamicRR installs by
// default: successive elimination over 16 arms on [200, 1200] MHz.
func productionLearner() (sim.ThresholdLearner, error) {
	d, err := sim.NewDynamicRR(sim.DynamicRROptions{})
	if err != nil {
		return nil, err
	}
	return d.Learner(), nil
}

// gate runs oracle.EngineChecker after every slot of an untimed pass and
// keeps the first violation.
type gate struct {
	mu  sync.Mutex
	err error
}

func (g *gate) checker() sim.StepChecker {
	inner := oracle.EngineChecker()
	return func(e *sim.Engine, res *core.Result, rep sim.SlotReport, info sim.StepInfo) error {
		err := inner(e, res, rep, info)
		if err != nil {
			g.fail(err)
		}
		return err
	}
}

func (g *gate) fail(err error) {
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.mu.Unlock()
}

func (g *gate) failed() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// slotDigest hashes one slot's decision: slot number, admitted ids and
// the exact bits of the slot reward.
func slotDigest(slot int, admitted []uint64, reward float64) uint64 {
	return digest(nil, append([]uint64{uint64(slot), math.Float64bits(reward)}, admitted...)...)
}

// digest is FNV-1a over a label and a list of words.
func digest(label []byte, words ...uint64) uint64 {
	h := fnv.New64a()
	h.Write(label)
	var b [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
	return h.Sum64()
}

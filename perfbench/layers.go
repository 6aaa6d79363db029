package main

import (
	"mecoffload/internal/sim"
)

// tickLayers turns the hook stamps of each traced cluster Tick into
// child spans and per-layer samples: learner select/update time, the
// slot phases around them, the barrier after the slowest shard's step,
// and the scheduler's LP warm-start and component counters.
type tickLayers struct {
	ticks                        int
	selectUS, updateUS           samples
	armSelects, armSwitches      int
	lastArm                      int
	preMS, settleMS, postMS      samples
	barrierMS, pending           samples
	solves, warmHits             float64
	compClean, compAll, compFast float64
	last                         map[*sim.Engine]check
}

// tick records one traced Tick that ran from start to end under span.
func (l *tickLayers) tick(tr *tracer, h *hooks, span int32, slot int64, start, end int64) {
	sel, upd, chk, observed := h.take()
	l.window(tr, span, slot, start, sel, upd, chk)
	if len(sel) == 1 && len(chk) == 1 {
		l.postMS = append(l.postMS, float64(end-chk[0].at)/1e6)
	}
	// The barrier: everything after the slowest shard's step.
	if len(chk) > 0 {
		latest := start
		for _, c := range chk {
			latest = max(latest, c.at)
		}
		l.barrierMS = append(l.barrierMS, float64(end-latest)/1e6)
	}
	if observed > 0 {
		tr.add("cluster.after_observer", slot, span, observed, end)
	}
}

// simRun splits a traced sim.Engine.Run into slots: each slot ends at
// its step-checker stamp and starts at the previous one (or at start).
func (l *tickLayers) simRun(tr *tracer, h *hooks, parent int32, start int64) (slotMS samples) {
	sel, upd, chk, _ := h.take()
	in := func(st []stamp, lo, hi int64) []stamp {
		var out []stamp
		for _, s := range st {
			if s.start >= lo && s.end <= hi {
				out = append(out, s)
			}
		}
		return out
	}
	prev := start
	for k, c := range chk {
		span := tr.add("sim.slot", int64(k), parent, prev, c.at)
		l.window(tr, span, int64(k), prev, in(sel, prev, c.at), in(upd, prev, c.at), chk[k:k+1])
		slotMS = append(slotMS, float64(c.at-prev)/1e6)
		prev = c.at
	}
	return slotMS
}

// window records the stamps that fell inside one slot begun at start.
func (l *tickLayers) window(tr *tracer, span int32, slot int64, start int64, sel, upd []stamp, chk []check) {
	l.ticks++
	for _, u := range upd {
		tr.add("bandit.Update", slot, span, u.start, u.end)
		l.updateUS = append(l.updateUS, float64(u.end-u.start)/1e3)
	}
	for _, s := range sel {
		tr.add("bandit.SelectValue", slot, span, s.start, s.end)
		l.selectUS = append(l.selectUS, float64(s.end-s.start)/1e3)
		if l.armSelects > 0 && s.arm != l.lastArm {
			l.armSwitches++
		}
		l.armSelects++
		l.lastArm = s.arm
	}
	if l.last == nil {
		l.last = map[*sim.Engine]check{}
	}
	for _, c := range chk {
		l.pending = append(l.pending, float64(c.pending))
		if c.isDynamicRR {
			l.last[c.eng] = c
		}
	}
	// The learner wrapper is installed only on one-shard clusters and
	// single sim engines, so a select stamp pairs with the slot's single
	// step-checker stamp.
	if len(sel) == 1 && len(chk) == 1 {
		s, c := sel[0], chk[0]
		tr.add("sim.schedule_settle", slot, span, s.end, c.at)
		l.preMS = append(l.preMS, float64(s.start-start)/1e6)
		l.settleMS = append(l.settleMS, float64(c.at-s.end)/1e6)
	}
}

// endPass folds the scheduler counters of a finished cluster into the
// totals; each pass starts a fresh cluster, so they count from zero.
func (l *tickLayers) endPass() {
	for _, c := range l.last {
		l.solves += float64(c.warmHits + c.warmMisses)
		l.warmHits += float64(c.warmHits)
		l.compClean += float64(c.inc.CleanHits)
		l.compAll += float64(c.inc.CleanHits + c.inc.DirtySolves)
		l.compFast += float64(c.inc.FastPath)
	}
	l.last = nil
}

// emit writes the bandit, sim, lp and core component metrics.
func (l *tickLayers) emit(r *report) {
	r.layer("bandit.select_us.p50", l.selectUS.median(), len(l.selectUS))
	r.layer("bandit.update_us.p50", l.updateUS.median(), len(l.updateUS))
	r.layer("bandit.arm_switch_frac", ratio(float64(l.armSwitches), float64(max(l.armSelects-1, 0))), l.armSelects)
	r.layer("sim.pre_schedule_ms.p50", l.preMS.median(), len(l.preMS))
	r.layer("sim.schedule_settle_ms.p50", l.settleMS.median(), len(l.settleMS))
	r.layer("sim.schedule_settle_ms.p99", l.settleMS.pct(0.99), len(l.settleMS))
	r.layer("sim.post_step_ms.p50", l.postMS.median(), len(l.postMS))
	r.layer("cluster.barrier_ms.p50", l.barrierMS.median(), len(l.barrierMS))
	r.layer("serve.pending_depth.mean", l.pending.mean(), len(l.pending))
	r.layer("lp.solves_per_slot", ratio(l.solves, float64(l.ticks)), l.ticks)
	r.layer("lp.warm_hit_ratio", ratio(l.warmHits, l.solves), int(l.solves))
	r.layer("core.components.clean_frac", ratio(l.compClean, l.compAll), int(l.compAll))
	r.layer("core.components.fastpath_frac", ratio(l.compFast, l.compAll), int(l.compAll))
}

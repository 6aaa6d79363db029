package cluster

import (
	"errors"

	"mecoffload/internal/mec"
	"mecoffload/internal/serve"
)

// Migration phases. A migration is proposed by the sweep, priced by the
// free-capacity advantage of its target shard, and either committed
// through the two-phase handoff or aborted (below-hysteresis price, the
// request settled first, the deadline budget ran out, or the target
// refused).
const (
	PhaseProposed  = "proposed"
	PhasePriced    = "priced"
	PhaseCommitted = "committed"
	PhaseAborted   = "aborted"
)

// Migration is one journal entry of the cross-shard handoff protocol.
type Migration struct {
	Global uint64  `json:"global"`
	From   int     `json:"from"`
	To     int     `json:"to"`
	Price  float64 `json:"price"` // free-capacity-fraction advantage at proposal time
	Phase  string  `json:"phase"`
	Reason string  `json:"reason,omitempty"`
	Slot   int     `json:"slot"`
}

const journalCap = 256

// Migrations returns a copy of the bounded migration journal, oldest
// first.
func (c *Cluster) Migrations() []Migration {
	c.migMu.Lock()
	defer c.migMu.Unlock()
	out := make([]Migration, 0, len(c.journal))
	out = append(out, c.journal[c.journalHead:]...)
	return append(out, c.journal[:c.journalHead]...)
}

// journalAppend records one entry in O(1): the journal fills to
// journalCap, then overwrites its oldest entry in place, a ring whose
// oldest element sits at journalHead.
func (c *Cluster) journalAppend(m Migration) {
	c.migMu.Lock()
	if len(c.journal) < journalCap {
		c.journal = append(c.journal, m)
	} else {
		c.journal[c.journalHead] = m
		c.journalHead = (c.journalHead + 1) % journalCap
	}
	c.migMu.Unlock()
}

// MigratedCounts returns the per-shard committed handoff counters.
func (c *Cluster) MigratedCounts() (in, out []uint64) {
	in = make([]uint64, len(c.nodes))
	out = make([]uint64, len(c.nodes))
	for k, nd := range c.nodes {
		in[k] = nd.migratedIn.Load()
		out[k] = nd.migratedOut.Load()
	}
	return in, out
}

// shrinkDeadline returns the deadline budget a request has left after
// waiting `waited` slots at its current shard. A migrated request
// re-enters the target's intake with this shrunk deadline, so the
// handoff never grants extra time; non-positive means the request is no
// longer worth moving.
func shrinkDeadline(spec serve.RequestSpec, waited int, slotMS float64) float64 {
	d := spec.DeadlineMS
	if d == 0 {
		d = mec.DefaultDeadlineMS
	}
	return d - float64(waited)*slotMS
}

// sweepLocked runs one migration round under the cluster clock lock over
// the router's worklist of spanning requests not yet seen settled, in
// ascending global-id order. Each visited request's status is read
// first: a request no longer pending (or gone from the registry) can
// never be pending again under the same (shard, ext), so it leaves the
// worklist for good — journaled "aborted: settled" on the way out when
// its best target was priced above hysteresis, hence at most once (an
// Extract that finds the request settled after a pending status read
// prunes it the same way). A still-pending request is proposed against
// the shard with the most spare capacity among its candidate owners —
// using the free-capacity fractions the shard workers computed inside
// this slot's tick epoch (shardNode.computeFreeFrac), so the sweep
// itself touches no engine gauges — priced by the free-fraction
// advantage, and committed through the two-phase handoff: phase one
// extracts the request from its source shard's planner (aborting
// benignly if it settled or started running first), phase two submits it
// to the target with a deadline shrunk by the time already waited. A
// refused phase two compensates by re-submitting to the source, so a
// request is never lost mid-handoff; every rebind keeps the global id,
// so the request keeps its worklist place. Commits per sweep are capped
// by MigrationBurst.
func (c *Cluster) sweepLocked() {
	work := c.router.spanWork(c.sweepWork[:0])
	settled := c.sweepSettled[:0]
	committed := 0
	for _, sc := range work {
		src := c.nodes[sc.shard]
		if !src.eng.Alive() {
			continue
		}
		rec, ok, err := src.eng.Status(sc.ext)
		if err != nil {
			continue // registry stopped: nothing is known, keep the entry
		}
		pending := ok && rec.State == serve.StatePending
		if !pending {
			settled = append(settled, sc.global)
		}
		if committed >= c.cfg.MigrationBurst {
			// Past the burst cap the walk only prunes, so the worklist
			// never keeps a settled request it could have seen.
			continue
		}
		// Propose: best alive target shard owning at least one candidate.
		target, best := -1, 0.0
		for _, st := range sc.cands {
			k := c.owner[st]
			if k == sc.shard || !c.nodes[k].eng.Alive() {
				continue
			}
			if adv := c.nodes[k].freeFrac - c.nodes[sc.shard].freeFrac; target < 0 || adv > best {
				target, best = k, adv
			}
		}
		if target < 0 || best < c.cfg.MigrationHysteresis {
			// Not worth the handoff; stay put. Only journal real proposals.
			continue
		}
		m := Migration{Global: sc.global, From: sc.shard, To: target, Price: best, Slot: c.slot, Phase: PhasePriced}
		if !pending {
			m.Phase, m.Reason = PhaseAborted, "settled"
			c.journalAppend(m)
			continue
		}
		// Phase one: extract from the source planner.
		spec, arrival, err := src.eng.Extract(sc.ext)
		if err != nil {
			m.Phase, m.Reason = PhaseAborted, err.Error()
			if errors.Is(err, serve.ErrNotPending) {
				// Not in the planner: either still in the intake ring
				// (its record reads pending from the batch push on) or
				// settled since the status read. Only the second leaves
				// the worklist.
				m.Reason = "in intake"
				if rec, ok, err := src.eng.Status(sc.ext); err == nil && (!ok || rec.State != serve.StatePending) {
					m.Reason = "settled"
					settled = append(settled, sc.global)
				}
			}
			c.journalAppend(m)
			continue
		}
		waited := c.slot - arrival
		if waited < 0 {
			waited = 0
		}
		// Globalize the source-local spec before re-homing it.
		spec.AccessStation = src.stations[spec.AccessStation]
		spec.DeadlineMS = shrinkDeadline(spec, waited, c.cfg.SlotLengthMS)
		if spec.DeadlineMS <= 0 {
			// Out of budget: hand it back to the source rather than grant
			// the move free time. It will expire where it waited.
			spec.DeadlineMS = c.cfg.SlotLengthMS / 2
			if ext, _, rerr := src.eng.Submit(c.localSpec(sc.shard, spec, sc.cands)); rerr == nil {
				c.router.rebind(sc.global, sc.shard, ext, true)
			}
			m.Phase, m.Reason = PhaseAborted, "deadline exhausted"
			c.journalAppend(m)
			continue
		}
		// Phase two: commit at the target.
		ext, _, err := c.nodes[target].eng.Submit(c.localSpec(target, spec, sc.cands))
		if err != nil {
			// Compensate: the request goes back to its source shard.
			m.Phase, m.Reason = PhaseAborted, "target refused: "+err.Error()
			if rext, _, rerr := src.eng.Submit(c.localSpec(sc.shard, spec, sc.cands)); rerr == nil {
				c.router.rebind(sc.global, sc.shard, rext, true)
			} else {
				c.cfg.Logf("cluster: migration %d lost compensation (source: %v, target: %v)",
					sc.global, rerr, err)
				m.Reason += "; compensation failed: " + rerr.Error()
			}
			c.journalAppend(m)
			continue
		}
		c.router.rebind(sc.global, target, ext, true)
		src.migratedOut.Add(1)
		c.nodes[target].migratedIn.Add(1)
		m.Phase = PhaseCommitted
		c.journalAppend(m)
		committed++
	}
	c.router.pruneSpan(settled)
	// Keep the scratch for the next sweep, cleared so it pins no
	// candidate lists of requests the router has since evicted.
	clear(work)
	c.sweepWork, c.sweepSettled = work[:0], settled[:0]
}

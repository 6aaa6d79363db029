package core

import (
	"sync"
	"sync/atomic"

	"mecoffload/internal/lp"
)

// warmKey addresses one stored basis: the rounding-pass index plus the
// shard the basis belongs to. A shard is one connected component of the
// request-station candidate graph, identified by its smallest station
// index — the only label that is stable while arrivals and departures
// reshape the component around it.
type warmKey struct {
	pass  int
	shard int
}

// WarmCache carries optimal LP bases across structurally similar solves:
// consecutive time slots of the online LP-PT, repetitions of the same
// experiment grid cell, or successive rounding passes of Appro/Heu. One
// basis is kept per (rounding pass, shard): pass k of one run is
// structurally closest to pass k of the next (same slot grid, similar
// residual shape), and the per-component decomposition solves each shard
// independently, so each worker warm-starts from its own shard's basis
// without contending for the others. Lookups are exact-shard only: LP
// columns are named by request position, so another shard's basis would
// resolve onto a different component's requests and churn the chosen
// vertex from slot to slot; a key seen for the first time solves cold.
//
// A nil *WarmCache is valid and disables warm starting. A non-nil cache
// is safe for concurrent use by the solver worker pool: lookups take a
// read lock on the key map and load an atomic pointer, so concurrent
// get/put on different shards never serialize on one mutex (the write
// lock is only taken the first time a key appears).
type WarmCache struct {
	hits   atomic.Uint64
	misses atomic.Uint64

	mu    sync.RWMutex
	slots map[warmKey]*atomic.Pointer[lp.Basis]

	// names interns LP row/column names across slots so the per-slot
	// rebuild of structurally identical problems does not re-allocate
	// thousands of identical strings.
	names nameCache
}

// NewWarmCache returns an empty cache.
func NewWarmCache() *WarmCache {
	return &WarmCache{slots: make(map[warmKey]*atomic.Pointer[lp.Basis])}
}

// Stats returns how many basis lookups found a seed basis (hits) versus
// fell back to a cold solve (misses). The serving daemon exports the
// ratio as its LP warm-start hit rate.
func (c *WarmCache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// get returns the stored basis for a (rounding pass, shard) pair (nil
// when absent). Safe for concurrent use.
func (c *WarmCache) get(pass, shard int) *lp.Basis {
	if c == nil {
		return nil
	}
	c.mu.RLock()
	p := c.slots[warmKey{pass: pass, shard: shard}]
	c.mu.RUnlock()
	if p == nil {
		c.misses.Add(1)
		return nil
	}
	b := p.Load()
	if b == nil {
		c.misses.Add(1)
		return nil
	}
	c.hits.Add(1)
	return b
}

// put stores the optimal basis of a (rounding pass, shard) pair,
// replacing any previous one (latest wins: the most recent solve is
// structurally closest to the next). Safe for concurrent use.
func (c *WarmCache) put(pass, shard int, b *lp.Basis) {
	if c == nil || b == nil {
		return
	}
	k := warmKey{pass: pass, shard: shard}
	c.mu.RLock()
	p := c.slots[k]
	c.mu.RUnlock()
	if p == nil {
		c.mu.Lock()
		p = c.slots[k]
		if p == nil {
			p = &atomic.Pointer[lp.Basis]{}
			c.slots[k] = p
		}
		c.mu.Unlock()
	}
	p.Store(b)
}

// nameTable returns the cache's interned-name table (nil receiver safe:
// a nil cache means names are formatted on the fly).
func (c *WarmCache) nameTable() *nameCache {
	if c == nil {
		return nil
	}
	return &c.names
}

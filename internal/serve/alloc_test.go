package serve

import (
	"math/rand"
	"testing"
)

// TestRunSlotIdleNoAllocs pins the daemon's steady-state hot path: an
// idle slot (no pending requests, no running streams) must execute
// without heap allocations — no event buffers, no shard messages, no
// reply channels. The test drives runSlot directly on an unstarted
// engine; idle-skip publishing means no channel sends happen, so the
// absent shard goroutines are never needed.
func TestRunSlotIdleNoAllocs(t *testing.T) {
	if oracleEnv() {
		t.Skip("MEC_ORACLE installs a per-slot checker that allocates")
	}
	e, err := New(Config{Net: testNetwork(t, 4), Rng: rand.New(rand.NewSource(42))})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() { e.runSlot() })
	if allocs != 0 {
		t.Fatalf("idle runSlot allocated %.1f times per slot, want 0", allocs)
	}
	if got := e.metrics.SlotErrors.Load(); got != 0 {
		t.Fatalf("idle slots recorded %d scheduler errors, want 0", got)
	}
}

// TestStatusAllocFree pins the status-poll floor: Status on a live
// engine reuses a pooled message and reply channel, so a lookup — hit
// or miss — allocates nothing. The cluster's migration sweep reads one
// status per worklist entry, and every GET /v1/requests/{id} takes the
// same path. The message pool is a free list, which neither the GC nor
// the race detector empties, so this holds in race builds too.
func TestStatusAllocFree(t *testing.T) {
	e, err := New(Config{Net: testNetwork(t, 4), Rng: rand.New(rand.NewSource(42))})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer func() { _ = e.Stop() }()
	id, _, err := e.Submit(RequestSpec{AccessStation: 1})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		rec, ok, err := e.Status(id)
		if err != nil || !ok || rec.State != StatePending {
			t.Fatalf("Status(%d) = (%+v, %v, %v), want a pending record", id, rec, ok, err)
		}
		if _, ok, _ := e.Status(id + 1000); ok {
			t.Fatal("unknown id resolved")
		}
	})
	if allocs != 0 {
		t.Fatalf("Status allocates %v per call pair, want 0", allocs)
	}
}

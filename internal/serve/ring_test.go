package serve

import (
	"runtime"
	"testing"
)

// TestRingFIFO pins the single-goroutine contract: entries pop in push
// order, capacity rounds up to a power of two, and a full ring refuses
// pushes without losing anything — also when the entries span several
// segments, and again once the ring reuses its emptied segments.
func TestRingFIFO(t *testing.T) {
	for _, tc := range []struct{ capacity, want int }{{3, 4}, {1000, 1024}} {
		r := newIngestRing(tc.capacity)
		if r.Cap() != tc.want {
			t.Fatalf("capacity %d rounded to %d, want %d", tc.capacity, r.Cap(), tc.want)
		}
		for round := 0; round < 3; round++ {
			base := uint64(round * tc.want)
			for i := 0; i < tc.want; i++ {
				if !r.TryPush(ingestEntry{ext: base + uint64(i)}) {
					t.Fatalf("cap %d: push %d refused below capacity", tc.want, i)
				}
			}
			if r.TryPush(ingestEntry{ext: 99}) {
				t.Fatalf("cap %d: push accepted on a full ring", tc.want)
			}
			if r.Len() != tc.want {
				t.Fatalf("full ring len %d, want %d", r.Len(), tc.want)
			}
			for i := 0; i < tc.want; i++ {
				e, ok := r.TryPop()
				if !ok || e.ext != base+uint64(i) {
					t.Fatalf("cap %d: pop %d = (%v, %v), want ext %d", tc.want, i, e.ext, ok, base+uint64(i))
				}
			}
			if _, ok := r.TryPop(); ok {
				t.Fatal("pop succeeded on an empty ring")
			}
		}
	}
}

// TestRingMemoryFollowsDepth pins why the ring is segmented: a new ring
// holds one segment rather than its capacity, and once warm, traffic
// that keeps it shallow cycles between two segments without allocating.
func TestRingMemoryFollowsDepth(t *testing.T) {
	r := newIngestRing(4096)
	if r.Cap() != 4096 || len(r.headSeg.buf) != maxRingSegment || r.headSeg != r.tailSeg {
		t.Fatalf("new ring: cap %d, first segment %d slots", r.Cap(), len(r.headSeg.buf))
	}
	next := uint64(0)
	cycle := func() {
		for range 3 * maxRingSegment {
			if !r.TryPush(ingestEntry{ext: next}) {
				t.Fatal("push refused on an empty ring")
			}
			if e, ok := r.TryPop(); !ok || e.ext != next {
				t.Fatalf("pop = (%v, %v), want ext %d", e.ext, ok, next)
			}
			next++
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Fatalf("shallow traffic allocates %v per %d push/pop pairs, want 0", allocs, 3*maxRingSegment)
	}
}

// TestRingSPSCNoDropNoDup is the concurrency property test (run under
// -race by the CI race job): with exactly one producer and one consumer
// the ring delivers every entry exactly once, in order, below capacity —
// within one segment (capacity 64) and across linked ones (1024).
func TestRingSPSCNoDropNoDup(t *testing.T) {
	n := 50000
	if testing.Short() {
		n = 5000
	}
	for _, capacity := range []int{64, 1024} {
		r := newIngestRing(capacity)
		done := make(chan error, 1)
		go func() {
			for i := 0; i < n; i++ {
				for !r.TryPush(ingestEntry{ext: uint64(i), seq: uint64(i)}) {
					// Yield while full: on one CPU a pure spin starves the
					// consumer for whole scheduling quanta.
					runtime.Gosched()
				}
			}
			done <- nil
		}()
		for i := 0; i < n; {
			e, ok := r.TryPop()
			if !ok {
				runtime.Gosched()
				continue
			}
			if e.ext != uint64(i) || e.seq != uint64(i) {
				t.Fatalf("cap %d: pop %d saw entry %d/%d: dropped or duplicated", capacity, i, e.ext, e.seq)
			}
			i++
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if r.Len() != 0 {
			t.Fatalf("cap %d: ring still holds %d entries", capacity, r.Len())
		}
	}
}

// TestStageBufferOrder pins the reward-aware policy's ordering: sheds
// take the lowest price first (newest among ties), drains take the
// highest price first (oldest among ties).
func TestStageBufferOrder(t *testing.T) {
	var s stageBuffer
	// Prices 3, 1, 2, and two entries tied at price 2 (seq 2 older, seq 3 newer).
	s.insert(ingestEntry{ext: 0, price: 3, seq: 0})
	s.insert(ingestEntry{ext: 1, price: 1, seq: 1})
	s.insert(ingestEntry{ext: 2, price: 2, seq: 2})
	s.insert(ingestEntry{ext: 3, price: 2, seq: 3})

	if got := s.popLowest(); got.ext != 1 {
		t.Fatalf("first shed took ext %d (price %g), want the price-1 entry", got.ext, got.price)
	}
	// Tie at price 2: the newer entry (seq 3) sheds before the older.
	if got := s.popLowest(); got.ext != 3 {
		t.Fatalf("tie shed took ext %d, want the newer entry 3", got.ext)
	}
	// Drain order: highest price first.
	if got := s.popHighest(); got.ext != 0 {
		t.Fatalf("drain took ext %d, want the price-3 entry", got.ext)
	}
	if got := s.popHighest(); got.ext != 2 {
		t.Fatalf("drain took ext %d, want the remaining entry", got.ext)
	}
	if s.len() != 0 {
		t.Fatalf("stage still holds %d entries", s.len())
	}
}

package serve

// The high-throughput ingest path's two queue primitives.
//
// ingestRing is a bounded single-producer/single-consumer ring buffer in
// the classic Lamport style: the producer (the intake pump goroutine)
// only advances tail, the consumer (the engine loop) only advances head,
// and the atomic cursor stores establish the happens-before edges that
// make the slot handoff safe without locks. It sits between HTTP intake
// and the engine loop so a burst of batch submissions never contends
// with a scheduling tick.
//
// stageBuffer is the pump-owned overflow stage that implements the
// reward-aware shedding policy: entries that cannot enter a full ring
// wait here ordered by expected reward, drain back into the ring
// highest-expected-reward first, and — once the stage itself overflows —
// shed lowest-expected-reward first. Below saturation the stage is
// pass-through (insert immediately followed by pop), so FIFO submission
// order is preserved and batched intake decides identically to the
// single-POST path; the priority order only reorders requests the
// single-POST path would have had to refuse outright.

import (
	"sort"
	"sync/atomic"
)

// ingestEntry is one request travelling the batch intake path.
type ingestEntry struct {
	spec    RequestSpec
	ext     uint64  // externally visible id, assigned by the pump
	price   float64 // expected reward under the spec's demand distribution
	seq     uint64  // pump-local arrival ordinal, for deterministic ties
	enqNano int64   // enqueue timestamp for the intake-latency histogram
}

// ingestRing is the bounded SPSC ring. Capacity is rounded up to a power
// of two. The entries live in fixed-size segments linked from producer to
// consumer rather than in one capacity-sized array, so the ring holds
// memory for the depth it reaches, not for its bound: under shallow
// traffic it cycles between two segments (the one in use and a spare),
// where a 4096-entry array would pin ~400 KB per engine from New on.
type ingestRing struct {
	capacity uint64
	segMask  uint64        // segment length - 1
	head     atomic.Uint64 // next index to pop; written only by the consumer
	tail     atomic.Uint64 // next index to push; written only by the producer
	headSeg  *ringSegment  // consumer-owned: the segment holding head
	tailSeg  *ringSegment  // producer-owned: the segment holding tail
	// spare is one segment the consumer emptied, handed back for the
	// producer's next link so steady traffic allocates nothing.
	spare atomic.Pointer[ringSegment]
}

// ringSegment is one run of ring slots. next is linked by the producer
// before it publishes the first entry beyond this segment, so a consumer
// that loaded a tail past the segment's end always finds it.
type ringSegment struct {
	buf  []ingestEntry
	next atomic.Pointer[ringSegment]
}

// maxRingSegment bounds a segment's length (256 entries are ~26 KB).
const maxRingSegment = 256

func newIngestRing(capacity int) *ingestRing {
	if capacity < 2 {
		capacity = 2
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	seg := &ringSegment{buf: make([]ingestEntry, min(n, maxRingSegment))}
	return &ingestRing{capacity: uint64(n), segMask: uint64(len(seg.buf) - 1), headSeg: seg, tailSeg: seg}
}

// Cap returns the ring's fixed capacity.
func (r *ingestRing) Cap() int { return int(r.capacity) }

// Len returns the current depth. Reading both cursors is not atomic as a
// pair, so concurrent callers see a value at most one push/pop stale —
// exact for the producer and consumer themselves, gauge-grade for
// everyone else.
func (r *ingestRing) Len() int {
	return int(r.tail.Load() - r.head.Load())
}

// TryPush appends one entry; false when the ring is full. Producer
// goroutine only.
func (r *ingestRing) TryPush(e ingestEntry) bool {
	t := r.tail.Load()
	if t-r.head.Load() == r.capacity {
		return false
	}
	i := t & r.segMask
	if i == 0 && t != 0 {
		// The tail segment is full: link the spare (or a fresh segment).
		seg := r.spare.Swap(nil)
		if seg == nil {
			seg = &ringSegment{buf: make([]ingestEntry, r.segMask+1)}
		}
		r.tailSeg.next.Store(seg)
		r.tailSeg = seg
	}
	r.tailSeg.buf[i] = e
	r.tail.Store(t + 1) // release: publishes the slot write (and any link) to the consumer
	return true
}

// TryPop removes the oldest entry; false when the ring is empty.
// Consumer goroutine only.
func (r *ingestRing) TryPop() (ingestEntry, bool) {
	h := r.head.Load()
	if r.tail.Load() == h {
		return ingestEntry{}, false
	}
	i := h & r.segMask
	if i == 0 && h != 0 {
		// The head segment is used up (its slots were cleared as they
		// popped): step to the next and hand this one back as the spare.
		// The producer is already past it, so it no longer touches it.
		old := r.headSeg
		r.headSeg = old.next.Load()
		old.next.Store(nil)
		r.spare.Store(old)
	}
	e := r.headSeg.buf[i]
	// Clear the slot before releasing it so the ring never pins request
	// specs past their pop (the producer may not reuse this slot for a
	// long time on a quiet daemon).
	r.headSeg.buf[i] = ingestEntry{}
	r.head.Store(h + 1) // release: returns the slot to the producer
	return e, true
}

// stageBuffer holds entries waiting for ring space, sorted ascending by
// (price, then seq descending): index 0 is the cheapest entry — and,
// among equal prices, the newest — which is exactly what the shedding
// policy drops first; the last index is the most valuable — and, among
// equal prices, the oldest — which is what drains into the ring first.
// Owned entirely by the pump goroutine.
type stageBuffer struct {
	entries []ingestEntry
}

func (s *stageBuffer) len() int { return len(s.entries) }

// insert places one entry at its sorted position.
func (s *stageBuffer) insert(e ingestEntry) {
	i := sort.Search(len(s.entries), func(i int) bool {
		if s.entries[i].price != e.price {
			return s.entries[i].price > e.price
		}
		return s.entries[i].seq < e.seq // equal price: newer (larger seq) sorts lower
	})
	s.entries = append(s.entries, ingestEntry{})
	copy(s.entries[i+1:], s.entries[i:])
	s.entries[i] = e
}

// popLowest removes and returns the cheapest (shed victim) entry.
func (s *stageBuffer) popLowest() ingestEntry {
	e := s.entries[0]
	n := copy(s.entries, s.entries[1:])
	s.entries[n] = ingestEntry{}
	s.entries = s.entries[:n]
	return e
}

// popHighest removes and returns the most valuable (next to drain) entry.
func (s *stageBuffer) popHighest() ingestEntry {
	n := len(s.entries) - 1
	e := s.entries[n]
	s.entries[n] = ingestEntry{}
	s.entries = s.entries[:n]
	return e
}

package serve

// The daemon's mutable observability state — per-base-station occupancy
// gauges and the per-request status registry — is sharded across
// goroutine-owned shards. Each shard runs a single-writer loop over a
// command channel: the engine loop publishes slot updates, HTTP handlers
// publish status and gauge queries, and all mutation happens inside the
// shard goroutine, so the hot path takes no locks anywhere.
//
// Station i belongs to shard i mod N; request id belongs to shard
// id mod N. The scheduling-authoritative ledger stays inside the planner
// engine (owned exclusively by the engine loop); shards carry the copy
// that concurrent readers see, so a burst of /metrics scrapes or status
// polls never contends with a scheduling tick.

// Request lifecycle states exposed by GET /v1/requests/{id}.
const (
	// StatePending: submitted, waiting in the admission queue.
	StatePending = "pending"
	// StateServing: admitted, stream holding its service instance.
	StateServing = "serving"
	// StateCompleted: stream finished its hold and departed (terminal).
	StateCompleted = "completed"
	// StateEvicted: admitted but terminated at realization — demand
	// overflow or deadline miss; no reward (terminal).
	StateEvicted = "evicted"
	// StateExpired: never admitted; deadline became unreachable on every
	// station (terminal).
	StateExpired = "expired"
	// StateShed: accepted into the batched intake path but dropped by
	// the reward-aware overload policy (or refused at ingest) before
	// ever reaching the scheduler (terminal).
	StateShed = "shed"
	// StateMigrated: handed off to another cluster shard while pending
	// (terminal for this engine; the cluster router forwards status
	// lookups to the new owner).
	StateMigrated = "migrated"
)

// RequestRecord is one request's externally visible status.
type RequestRecord struct {
	ID            uint64  `json:"id"`
	State         string  `json:"state"`
	Station       int     `json:"station"`
	SubmittedSlot int     `json:"submittedSlot"`
	DecisionSlot  int     `json:"decisionSlot,omitempty"`
	DepartSlot    int     `json:"departSlot,omitempty"`
	Reward        float64 `json:"reward,omitempty"`
	LatencyMS     float64 `json:"latencyMS,omitempty"`
}

// terminal reports whether the record can be evicted from the registry.
func (r *RequestRecord) terminal() bool {
	switch r.State {
	case StateCompleted, StateEvicted, StateExpired, StateShed, StateMigrated:
		return true
	}
	return false
}

type eventKind int

const (
	evSubmitted eventKind = iota
	evServing
	evEvicted
	evExpired
	evCompleted
	evShed
	evMigrated
)

// requestEvent is one request-state transition published by the engine
// loop to the owning shard.
type requestEvent struct {
	id        uint64
	kind      eventKind
	slot      int
	station   int
	reward    float64
	latencyMS float64
}

// stationUsed carries one owned station's realized occupancy after a
// slot settled.
type stationUsed struct {
	station int
	usedMHz float64
}

// Shard commands. Exactly one goroutine (the shard's) consumes them.
type slotMsg struct {
	used   []stationUsed
	events []requestEvent
}

// statusMsg travels by pointer (boxing a pointer in the shard's `any`
// channel does not allocate) and is pooled with its reply channel.
type statusMsg struct {
	id    uint64
	reply chan statusReply
}

type statusReply struct {
	rec RequestRecord
	ok  bool
}

type gaugesMsg struct{ reply chan []StationGauge }

type stopMsg struct{ done chan struct{} }

// shard owns a partition of the station gauges and the request registry.
type shard struct {
	idx  int
	cmds chan any

	// State below is owned by the shard goroutine; nothing else touches it.
	records    map[uint64]*RequestRecord
	order      []uint64 // submission order, for bounded-registry eviction
	usedMHz    map[int]float64
	capMHz     map[int]float64
	maxRecords int
}

// newShard builds a shard owning the given stations (index -> capacity).
func newShard(idx int, caps map[int]float64, maxRecords int) *shard {
	s := &shard{
		idx:        idx,
		cmds:       make(chan any, 256),
		records:    make(map[uint64]*RequestRecord),
		usedMHz:    make(map[int]float64, len(caps)),
		capMHz:     caps,
		maxRecords: maxRecords,
	}
	for st := range caps {
		s.usedMHz[st] = 0
	}
	return s
}

// run is the shard's single-writer loop.
func (s *shard) run() {
	for cmd := range s.cmds {
		switch c := cmd.(type) {
		case slotMsg:
			for _, u := range c.used {
				s.usedMHz[u.station] = u.usedMHz
			}
			for _, ev := range c.events {
				s.apply(ev)
			}
			s.evictOverflow()
		case *statusMsg:
			rec, ok := s.records[c.id]
			var out statusReply
			if ok {
				out = statusReply{rec: *rec, ok: true}
			}
			c.reply <- out
		case gaugesMsg:
			gauges := make([]StationGauge, 0, len(s.capMHz))
			for st, cap := range s.capMHz {
				gauges = append(gauges, StationGauge{Station: st, UsedMHz: s.usedMHz[st], CapacityMHz: cap})
			}
			c.reply <- gauges
		case stopMsg:
			close(c.done)
			return
		}
	}
}

// apply folds one request event into the registry.
func (s *shard) apply(ev requestEvent) {
	switch ev.kind {
	case evSubmitted:
		if _, exists := s.records[ev.id]; exists {
			return
		}
		s.records[ev.id] = &RequestRecord{
			ID:            ev.id,
			State:         StatePending,
			Station:       -1,
			SubmittedSlot: ev.slot,
		}
		s.order = append(s.order, ev.id)
	case evServing:
		if rec, ok := s.records[ev.id]; ok {
			rec.State = StateServing
			rec.Station = ev.station
			rec.DecisionSlot = ev.slot
			rec.Reward = ev.reward
			rec.LatencyMS = ev.latencyMS
		}
	case evEvicted:
		if rec, ok := s.records[ev.id]; ok {
			rec.State = StateEvicted
			rec.Station = ev.station
			rec.DecisionSlot = ev.slot
		}
	case evExpired:
		if rec, ok := s.records[ev.id]; ok {
			rec.State = StateExpired
			rec.DecisionSlot = ev.slot
		}
	case evCompleted:
		if rec, ok := s.records[ev.id]; ok {
			rec.State = StateCompleted
			rec.DepartSlot = ev.slot
		}
	case evShed:
		// Only a still-pending record can shed; a scheduler decision
		// that raced ahead wins.
		if rec, ok := s.records[ev.id]; ok && rec.State == StatePending {
			rec.State = StateShed
			rec.DecisionSlot = ev.slot
		}
	case evMigrated:
		// Like a shed, migration only moves a still-pending record; the
		// extract protocol guarantees the loop never migrates a decided
		// request.
		if rec, ok := s.records[ev.id]; ok && rec.State == StatePending {
			rec.State = StateMigrated
			rec.DecisionSlot = ev.slot
		}
	}
}

// evictOverflow bounds the registry: once over capacity, the oldest
// terminal records are dropped (live records are always kept).
func (s *shard) evictOverflow() {
	if len(s.records) <= s.maxRecords {
		return
	}
	keep := s.order[:0]
	for _, id := range s.order {
		rec, ok := s.records[id]
		if !ok {
			continue
		}
		if len(s.records) > s.maxRecords && rec.terminal() {
			delete(s.records, id)
			continue
		}
		keep = append(keep, id)
	}
	s.order = keep
}

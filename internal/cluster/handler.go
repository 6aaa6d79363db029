package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"mecoffload/internal/serve"
)

// Handler builds the cluster's HTTP API. The surface mirrors the
// single-engine serve.Handler — same endpoints, same status codes, same
// 503 overload contract (the jittered Retry-After comes from shard 0's
// seeded stream) — so clients cannot tell one engine from N shards,
// except on /metrics, which exposes every gauge per shard under an
// explicit shard label:
//
//	POST /v1/requests        submit one RequestSpec, 202 + {id, slot, state}
//	POST /v1/requests:batch  NDJSON bulk submit, routed across shards
//	GET  /v1/requests/{id}   status by global id, wherever the request lives now
//	GET  /metrics            per-shard labeled Prometheus exposition
//	GET  /healthz            200 while any shard is alive
//	GET  /readyz             200 while every shard ticks and accepts intake
func Handler(c *Cluster) http.Handler {
	mux := http.NewServeMux()
	front := c.nodes[0].eng // overload contract + jitter stream

	type submitResponse struct {
		ID    uint64 `json:"id"`
		Slot  int    `json:"slot"`
		State string `json:"state"`
	}
	type errorResponse struct {
		Error string `json:"error"`
	}
	type batchResponse struct {
		Accepted int               `json:"accepted"`
		Shed     int               `json:"shed"`
		IDs      []uint64          `json:"ids,omitempty"`
		Errors   []serve.LineError `json:"errors,omitempty"`
	}

	mux.HandleFunc("POST /v1/requests", func(w http.ResponseWriter, r *http.Request) {
		var spec serve.RequestSpec
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
			return
		}
		id, slot, err := c.Submit(spec)
		switch {
		case err == nil:
			writeJSON(w, http.StatusAccepted, submitResponse{ID: id, Slot: slot, State: serve.StatePending})
		case errors.Is(err, serve.ErrDraining), errors.Is(err, serve.ErrStopped):
			front.WriteUnavailable(w, err)
		case errors.Is(err, serve.ErrBadSpec):
			writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error()})
		default:
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		}
	})

	mux.HandleFunc("POST /v1/requests:batch", func(w http.ResponseWriter, r *http.Request) {
		body := http.MaxBytesReader(w, r.Body, 32<<20)
		lines, lineErrs, err := serve.DecodeBatch(body, 0, 0)
		if err != nil {
			status := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.Is(err, serve.ErrBatchTooLarge) || errors.As(err, &tooBig) {
				status = http.StatusRequestEntityTooLarge
			}
			writeJSON(w, status, errorResponse{Error: "bad batch: " + err.Error()})
			return
		}
		specs := make([]serve.RequestSpec, 0, len(lines))
		for _, ln := range lines {
			if verr := c.ValidateSpec(ln.Spec); verr != nil {
				lineErrs = append(lineErrs, serve.LineError{Line: ln.Line, Error: verr.Error()})
				continue
			}
			specs = append(specs, ln.Spec)
		}
		if len(specs) == 0 && len(lineErrs) == 0 {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "empty batch"})
			return
		}
		res, err := c.SubmitBatch(specs)
		switch {
		case err == nil:
			writeJSON(w, http.StatusOK, batchResponse{
				Accepted: len(res.IDs),
				Shed:     res.Shed,
				IDs:      res.IDs,
				Errors:   lineErrs,
			})
		case errors.Is(err, serve.ErrSaturated), errors.Is(err, serve.ErrDraining), errors.Is(err, serve.ErrStopped):
			front.WriteUnavailable(w, err)
		default:
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		}
	})

	mux.HandleFunc("GET /v1/requests/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request id"})
			return
		}
		rec, ok, err := c.Status(id)
		if err != nil {
			front.WriteUnavailable(w, err)
			return
		}
		if !ok {
			writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown request"})
			return
		}
		writeJSON(w, http.StatusOK, rec)
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = c.WriteProm(w)
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if c.Alive() {
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write([]byte("ok\n"))
			return
		}
		http.Error(w, "cluster stopped", http.StatusServiceUnavailable)
	})

	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if c.Ready() {
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write([]byte("ready\n"))
			return
		}
		http.Error(w, "not ready", http.StatusServiceUnavailable)
	})

	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteProm renders the cluster's Prometheus exposition: every family
// carries a shard label so operators see per-shard slot latency, queue
// depth, and migration flow, plus cluster-level routing counters.
func (c *Cluster) WriteProm(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}

	p("# HELP arserved_cluster_shards Configured scheduler shards.\n")
	p("# TYPE arserved_cluster_shards gauge\n")
	p("arserved_cluster_shards %d\n", len(c.nodes))

	p("# HELP arserved_cluster_slot The cluster clock's next scheduling slot.\n")
	p("# TYPE arserved_cluster_slot gauge\n")
	p("arserved_cluster_slot %d\n", c.Slot())

	rs := c.RouterStats()
	p("# HELP arserved_cluster_routed_total Requests routed, by path.\n")
	p("# TYPE arserved_cluster_routed_total counter\n")
	p("arserved_cluster_routed_total{path=\"fast\"} %d\n", rs.FastPath)
	p("arserved_cluster_routed_total{path=\"spanning\"} %d\n", rs.Spanning)
	p("arserved_cluster_routed_total{path=\"no_candidate\"} %d\n", rs.NoCandidate)

	p("# HELP arserved_cluster_sweep_worklist Spanning requests on the migration sweep's worklist, not yet seen settled.\n")
	p("# TYPE arserved_cluster_sweep_worklist gauge\n")
	p("arserved_cluster_sweep_worklist %d\n", rs.Worklist)

	p("# HELP arserved_cluster_sweep_pruned_total Requests dropped from the migration sweep's worklist: settled, evicted from the routing table, or handed over.\n")
	p("# TYPE arserved_cluster_sweep_pruned_total counter\n")
	p("arserved_cluster_sweep_pruned_total %d\n", rs.Pruned)

	p("# HELP arserved_cluster_checkpoints_total Cluster manifests written.\n")
	p("# TYPE arserved_cluster_checkpoints_total counter\n")
	p("arserved_cluster_checkpoints_total %d\n", c.checkpoints.Load())

	p("# HELP arserved_cluster_checkpoints_dropped_total Async snapshot generations superseded before reaching disk.\n")
	p("# TYPE arserved_cluster_checkpoints_dropped_total counter\n")
	p("arserved_cluster_checkpoints_dropped_total %d\n", c.CheckpointsDropped())

	p("# HELP arserved_cluster_requests_total Per-shard requests by terminal result.\n")
	p("# TYPE arserved_cluster_requests_total counter\n")
	for k, nd := range c.nodes {
		m := nd.eng.Metrics()
		p("arserved_cluster_requests_total{shard=\"%d\",result=\"submitted\"} %d\n", k, m.Submitted.Load())
		p("arserved_cluster_requests_total{shard=\"%d\",result=\"admitted\"} %d\n", k, m.Admitted.Load())
		p("arserved_cluster_requests_total{shard=\"%d\",result=\"served\"} %d\n", k, m.Served.Load())
		p("arserved_cluster_requests_total{shard=\"%d\",result=\"evicted\"} %d\n", k, m.Evicted.Load())
		p("arserved_cluster_requests_total{shard=\"%d\",result=\"expired\"} %d\n", k, m.Expired.Load())
		p("arserved_cluster_requests_total{shard=\"%d\",result=\"shed\"} %d\n", k, m.Shed.Load())
	}

	p("# HELP arserved_cluster_reward_dollars_total Per-shard realized reward.\n")
	p("# TYPE arserved_cluster_reward_dollars_total counter\n")
	for k, nd := range c.nodes {
		p("arserved_cluster_reward_dollars_total{shard=\"%d\"} %g\n", k, nd.eng.Metrics().Reward.Load())
	}

	p("# HELP arserved_cluster_pending_requests Per-shard admission-queue depth.\n")
	p("# TYPE arserved_cluster_pending_requests gauge\n")
	for k, nd := range c.nodes {
		p("arserved_cluster_pending_requests{shard=\"%d\"} %d\n", k, nd.eng.Metrics().PendingDepth.Load())
	}

	p("# HELP arserved_cluster_intake_depth Per-shard ingest ring plus overflow-stage depth.\n")
	p("# TYPE arserved_cluster_intake_depth gauge\n")
	for k, nd := range c.nodes {
		m := nd.eng.Metrics()
		p("arserved_cluster_intake_depth{shard=\"%d\"} %d\n", k, m.IntakeDepth.Load()+nd.eng.StagedDepth())
	}

	p("# HELP arserved_cluster_active_streams Per-shard streams occupying service instances.\n")
	p("# TYPE arserved_cluster_active_streams gauge\n")
	for k, nd := range c.nodes {
		p("arserved_cluster_active_streams{shard=\"%d\"} %d\n", k, nd.eng.Metrics().ActiveStreams.Load())
	}

	p("# HELP arserved_cluster_migrations_total Committed cross-shard handoffs per shard and direction.\n")
	p("# TYPE arserved_cluster_migrations_total counter\n")
	in, out := c.MigratedCounts()
	for k := range c.nodes {
		p("arserved_cluster_migrations_total{shard=\"%d\",direction=\"in\"} %d\n", k, in[k])
		p("arserved_cluster_migrations_total{shard=\"%d\",direction=\"out\"} %d\n", k, out[k])
	}

	p("# HELP arserved_cluster_slot_duration_ms Per-shard scheduling latency of one slot.\n")
	p("# TYPE arserved_cluster_slot_duration_ms histogram\n")
	for k, nd := range c.nodes {
		h := nd.eng.Metrics().SlotDurationSnapshot()
		for i, b := range h.Bounds {
			p("arserved_cluster_slot_duration_ms_bucket{shard=\"%d\",le=\"%g\"} %d\n", k, b, h.Counts[i])
		}
		p("arserved_cluster_slot_duration_ms_bucket{shard=\"%d\",le=\"+Inf\"} %d\n", k, h.Count)
		p("arserved_cluster_slot_duration_ms_sum{shard=\"%d\"} %g\n", k, h.Sum)
		p("arserved_cluster_slot_duration_ms_count{shard=\"%d\"} %d\n", k, h.Count)
	}

	p("# HELP arserved_cluster_intake_latency_ms Per-shard batched-ingest handoff latency.\n")
	p("# TYPE arserved_cluster_intake_latency_ms histogram\n")
	for k, nd := range c.nodes {
		h := nd.eng.Metrics().IntakeLatencySnapshot()
		for i, b := range h.Bounds {
			p("arserved_cluster_intake_latency_ms_bucket{shard=\"%d\",le=\"%g\"} %d\n", k, b, h.Counts[i])
		}
		p("arserved_cluster_intake_latency_ms_bucket{shard=\"%d\",le=\"+Inf\"} %d\n", k, h.Count)
		p("arserved_cluster_intake_latency_ms_sum{shard=\"%d\"} %g\n", k, h.Sum)
		p("arserved_cluster_intake_latency_ms_count{shard=\"%d\"} %d\n", k, h.Count)
	}

	p("# HELP arserved_cluster_station_used_mhz Realized MHz per global station, from its owning shard.\n")
	p("# TYPE arserved_cluster_station_used_mhz gauge\n")
	for k, nd := range c.nodes {
		for _, g := range nd.eng.Gauges() {
			p("arserved_cluster_station_used_mhz{shard=\"%d\",station=\"%d\"} %g\n", k, nd.stations[g.Station], g.UsedMHz)
		}
	}
	return err
}

package cluster_test

// The cluster correctness contract: sharding must be invisible in the
// decision stream. These tests replay island traces — topologies whose
// backhaul components match the partition, so every request's candidate
// set lives inside one shard — through 1-, 2-, and 8-shard clusters and
// require decision-for-decision parity (oracle.DiffCluster), plus the
// composable-checkpoint contract: a manifest written at N shards must
// restore at M shards without losing a request.
//
// Parity traces are built so scheduling is rng-independent: explicit
// single-outcome specs (realization has one support point) and
// RoundingDenominator 1 with one request per slot (the per-component LP
// has an integral vertex, so the rounding draw cannot change the
// landing). That leaves the couplings the cluster must actually
// preserve — pending sets, free capacity, threshold-bandit feedback —
// as the only parity surface.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mecoffload/internal/cluster"
	"mecoffload/internal/graph"
	"mecoffload/internal/mec"
	"mecoffload/internal/oracle"
	"mecoffload/internal/serve"
	"mecoffload/internal/sim"
	"mecoffload/internal/topology"
)

// islandNetwork builds `islands` disconnected backhaul components of
// `per` stations each (a chain inside every island), 3200 MHz per
// station. Disconnected components have infinite backhaul delay between
// them, so every request's candidate set stays inside its island — the
// partition-respecting topology the parity contract is stated for.
func islandNetwork(t testing.TB, islands, per int) *mec.Network {
	t.Helper()
	n := islands * per
	g := graph.New(n)
	nodes := make([]topology.Node, n)
	stations := make([]mec.BaseStation, n)
	for i := 0; i < n; i++ {
		nodes[i] = topology.Node{X: float64(i%per) * 0.01, Y: float64(i/per) * 0.1}
		stations[i] = mec.BaseStation{CapacityMHz: 3200, SpeedFactor: 1}
	}
	for isl := 0; isl < islands; isl++ {
		base := isl * per
		for k := 1; k < per; k++ {
			if _, err := g.AddEdge(base+k-1, base+k, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	net, err := mec.NewNetwork(mec.NetworkConfig{
		Stations: stations,
		Topo:     &topology.Topology{Graph: g, Nodes: nodes},
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// islandTrace emits an NDJSON trace activating one island per slot in
// rotation: slot t submits one explicit single-outcome request at
// island (t mod islands) with an integer reward, then `tail` idle slots
// drain the last streams. Integer rewards make cross-shard float sums
// exact; DurationSlots 2 with rotation period `islands` leaves every
// island idle when its turn comes back.
func islandTrace(islands, per, slots int) string {
	var b strings.Builder
	for t := 0; t < slots; t++ {
		isl := t % islands
		reward := 100 + (t*37)%400
		fmt.Fprintf(&b, `{"accessStation":%d,"durationSlots":2,"outcomes":[{"rateMBs":40,"prob":1,"reward":%d}]}`+"\n",
			isl*per, reward)
		b.WriteString("\n")
	}
	for i := 0; i < 8; i++ {
		b.WriteString("\n")
	}
	return b.String()
}

func parityConfig(net *mec.Network, shards int) cluster.Config {
	return cluster.Config{
		Net:           net,
		Shards:        shards,
		SchedulerName: "dynamicrr",
		DynamicRR:     sim.DynamicRROptions{RoundingDenominator: 1},
		Seed:          7,
	}
}

// TestClusterParity is the tentpole proof: 1-shard vs N-shard clusters
// replay the same island trace decision-for-decision identically, for
// N = 2 and N = 8 (one island per shard). Run under -race in CI's
// cluster-parity job.
func TestClusterParity(t *testing.T) {
	const islands, per = 8, 2
	net := islandNetwork(t, islands, per)
	trace := islandTrace(islands, per, 64)
	err := oracle.DiffCluster(func(shards int) (*oracle.ReplayDump, error) {
		return cluster.ReplayDump(parityConfig(net, shards), trace)
	}, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
}

// TestPartitionComponents pins the partition rule: whole components,
// ascending min-station order, greedy capacity balance; contiguous
// chunks only when shards outnumber components.
func TestPartitionComponents(t *testing.T) {
	net := islandNetwork(t, 4, 3)
	parts, err := cluster.Partition(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 {
		t.Fatalf("got %d parts, want 2", len(parts))
	}
	// Equal capacities: greedy assignment alternates islands 0,1,2,3
	// over the two shards.
	want := [][]int{{0, 1, 2, 6, 7, 8}, {3, 4, 5, 9, 10, 11}}
	for k := range want {
		if fmt.Sprint(parts[k]) != fmt.Sprint(want[k]) {
			t.Fatalf("part %d = %v, want %v", k, parts[k], want[k])
		}
	}
	// No island may be split when components >= shards.
	for _, parts := range [][][]int{parts} {
		for _, p := range parts {
			for _, st := range p {
				island := st / 3
				base := island * 3
				found := 0
				for _, q := range p {
					if q >= base && q < base+3 {
						found++
					}
				}
				if found != 3 {
					t.Fatalf("island %d split across shards: part %v", island, p)
				}
			}
		}
	}
	// More shards than components: contiguous chunks, every part
	// non-empty.
	parts, err = cluster.Partition(net, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 5 {
		t.Fatalf("got %d parts, want 5", len(parts))
	}
	seen := 0
	for _, p := range parts {
		if len(p) == 0 {
			t.Fatalf("empty part in %v", parts)
		}
		seen += len(p)
	}
	if seen != 12 {
		t.Fatalf("parts cover %d stations, want 12", seen)
	}
}

// TestClusterCheckpointReshard proves the manifest is shard-count
// agnostic: a 2-shard cluster checkpoints mid-trace with live pending
// requests, then 1- and 4-shard clusters restore from the same manifest
// without losing a single live request.
func TestClusterCheckpointReshard(t *testing.T) {
	const islands, per = 4, 2
	net := islandNetwork(t, islands, per)
	dir := t.TempDir()
	manifest := filepath.Join(dir, "cluster.json")

	cfg := parityConfig(net, 2)
	cfg.CheckpointPath = manifest
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()

	// Submit one request per island but never tick: every request is
	// still pending when the manifest is written.
	var ids []uint64
	for isl := 0; isl < islands; isl++ {
		id, _, err := c.Submit(serve.RequestSpec{
			AccessStation: isl * per,
			DurationSlots: 2,
			Outcomes:      []serve.OutcomeSpec{{RateMBs: 40, Prob: 1, Reward: 500}},
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := c.Stop(); err != nil { // writes the final manifest
		t.Fatal(err)
	}
	<-c.Done()
	if _, err := os.Stat(manifest); err != nil {
		t.Fatalf("manifest not written: %v", err)
	}

	for _, shards := range []int{1, 4} {
		// Each restore gets its own copy of the original manifest (and
		// shard snapshots): restored clusters write their OWN manifest on
		// Stop, which must not clobber the source of the next restore.
		rdir := t.TempDir()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range entries {
			data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(rdir, ent.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		rcfg := parityConfig(net, shards)
		rcfg.CheckpointPath = filepath.Join(rdir, filepath.Base(manifest))
		rc, err := cluster.New(rcfg)
		if err != nil {
			t.Fatalf("restore at %d shards: %v", shards, err)
		}
		rc.Start()
		for _, id := range ids {
			rec, ok, err := rc.Status(id)
			if err != nil {
				t.Fatalf("restore at %d shards: status %d: %v", shards, id, err)
			}
			if !ok {
				t.Fatalf("restore at %d shards: request %d lost", shards, id)
			}
			if rec.State != serve.StatePending {
				t.Fatalf("restore at %d shards: request %d in state %q, want pending", shards, id, rec.State)
			}
			if rec.ID != id {
				t.Fatalf("restore at %d shards: record id %d, want %d", shards, rec.ID, id)
			}
		}
		// The restored cluster must still schedule: tick until the
		// restored requests settle.
		for i := 0; i < 12; i++ {
			if err := rc.Tick(); err != nil {
				t.Fatalf("restore at %d shards: tick: %v", shards, err)
			}
		}
		settled := 0
		for _, id := range ids {
			rec, ok, err := rc.Status(id)
			if err != nil || !ok {
				t.Fatalf("restore at %d shards: post-tick status %d: ok=%v err=%v", shards, id, ok, err)
			}
			if rec.State != serve.StatePending {
				settled++
			}
		}
		if settled != len(ids) {
			t.Fatalf("restore at %d shards: only %d/%d restored requests settled", shards, settled, len(ids))
		}
		if err := rc.Stop(); err != nil {
			t.Fatalf("restore at %d shards: stop: %v", shards, err)
		}
		<-rc.Done()
	}
}

// TestRestoreIndentedCheckpoint pins the checkpoint format change:
// manifests and shard snapshots are written as compact JSON, and a
// checkpoint written indented (the format of earlier releases) still
// restores every live request.
func TestRestoreIndentedCheckpoint(t *testing.T) {
	const islands, per = 4, 2
	net := islandNetwork(t, islands, per)
	dir := t.TempDir()
	manifest := filepath.Join(dir, "cluster.json")
	cfg := parityConfig(net, 2)
	cfg.CheckpointPath = manifest
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	var ids []uint64
	for isl := 0; isl < islands; isl++ {
		id, _, err := c.Submit(serve.RequestSpec{
			AccessStation: isl * per,
			DurationSlots: 2,
			Outcomes:      []serve.OutcomeSpec{{RateMBs: 40, Prob: 1, Reward: 500}},
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	<-c.Done()

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1+2 {
		t.Fatalf("checkpoint dir holds %d files, want a manifest and 2 shard snapshots", len(entries))
	}
	for _, ent := range entries {
		path := filepath.Join(dir, ent.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.ContainsRune(data, '\n') {
			t.Fatalf("%s is not compact JSON:\n%s", ent.Name(), data)
		}
		var ind bytes.Buffer
		if err := json.Indent(&ind, data, "", " "); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, ind.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	rc, err := cluster.New(cfg)
	if err != nil {
		t.Fatalf("restoring the indented checkpoint: %v", err)
	}
	rc.Start()
	defer func() { _ = rc.Stop() }()
	for _, id := range ids {
		rec, ok, err := rc.Status(id)
		if err != nil || !ok || rec.State != serve.StatePending {
			t.Fatalf("restored request %d: (%+v, %v, %v), want pending", id, rec, ok, err)
		}
	}
}

// TestClusterHandlerMetrics drives the HTTP surface end to end and
// checks the per-shard labeled exposition.
func TestClusterHandlerMetrics(t *testing.T) {
	net := islandNetwork(t, 4, 2)
	c, err := cluster.New(parityConfig(net, 4))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer func() { _ = c.Stop() }()

	if _, _, err := c.Submit(serve.RequestSpec{
		AccessStation: 0,
		Outcomes:      []serve.OutcomeSpec{{RateMBs: 40, Prob: 1, Reward: 400}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Tick(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := c.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	for _, want := range []string{
		`arserved_cluster_shards 4`,
		`arserved_cluster_requests_total{shard="0",result="submitted"} 1`,
		`arserved_cluster_requests_total{shard="3",result="submitted"} 0`,
		`arserved_cluster_slot_duration_ms_count{shard="2"}`,
		`arserved_cluster_migrations_total{shard="1",direction="in"} 0`,
		`arserved_cluster_routed_total{path="fast"} 1`,
		`arserved_cluster_sweep_worklist 0`,
		`arserved_cluster_sweep_pruned_total 0`,
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("exposition missing %q:\n%s", want, got)
		}
	}
}

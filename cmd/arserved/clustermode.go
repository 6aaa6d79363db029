package main

// Cluster mode (`-cluster-shards N`): the daemon runs N scheduler
// shards behind the request router instead of one engine. The HTTP
// surface is identical; /metrics switches to the per-shard labeled
// exposition, and checkpoints become a composable cluster manifest.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mecoffload/internal/cluster"
	"mecoffload/internal/oracle"
	"mecoffload/internal/serve"
)

// runClusterReplay replays an NDJSON trace through a sharded cluster,
// mirroring the single-engine replay mode (same trace format, same
// summary line, same -replay-dump decision JSON in global-id space).
func runClusterReplay(ccfg cluster.Config, path, dumpPath string, out io.Writer) error {
	if !strings.HasSuffix(path, ".ndjson") {
		return errors.New("-cluster-shards replay supports NDJSON traces only (frame-trace JSON replays single-engine; drop -cluster-shards)")
	}
	var dump *oracle.ReplayDump
	if dumpPath != "" {
		dump = &oracle.ReplayDump{}
		ccfg.SlotObserver = func(slot int, admitted []uint64, reward float64) {
			if len(admitted) > 0 {
				ids := make([]int, len(admitted))
				for i, g := range admitted {
					ids[i] = int(g)
				}
				dump.Slots = append(dump.Slots, oracle.SlotAdmissions{Slot: slot, Admitted: ids, Reward: reward})
			}
			dump.TotalReward += reward
		}
	}
	ccfg.TickInterval = 0
	c, err := cluster.New(ccfg)
	if err != nil {
		return err
	}
	c.Start()
	f, err := os.Open(path)
	if err != nil {
		_ = c.Stop()
		return err
	}
	badShown := 0
	st, rerr := cluster.ReplayNDJSON(c, f, func(line int, msg string) {
		if badShown < 10 {
			fmt.Fprintf(out, "replay: line %d: %s\n", line, msg)
		}
		badShown++
	})
	_ = f.Close()
	if rerr != nil {
		_ = c.Stop()
		return rerr
	}
	if err := c.Stop(); err != nil {
		return err
	}
	<-c.Done()

	in, outMig := c.MigratedCounts()
	var migrated uint64
	for k := range in {
		migrated += in[k] + outMig[k]
	}
	rs := c.RouterStats()
	fmt.Fprintf(out, "replayed %d ndjson slots across %d shards: accepted=%d badlines=%d routed-fast=%d routed-spanning=%d migrations=%d\n",
		st.Slots, c.Shards(), st.Accepted, st.BadLines, rs.FastPath, rs.Spanning, migrated/2)
	if dump != nil {
		dump.Submitted = st.Accepted
		data, err := json.MarshalIndent(dump, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(dumpPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// runClusterServe is the cluster-mode HTTP daemon: same lifecycle as
// the single-engine path — listen, announce, drain on SIGTERM/SIGINT
// with a bounded wait, write the final manifest, exit 0.
func runClusterServe(ccfg cluster.Config, addr string, drainAfter time.Duration, out io.Writer) error {
	c, err := cluster.New(ccfg)
	if err != nil {
		return err
	}
	c.Start()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		_ = c.Stop()
		return err
	}
	srv := newHTTPServer(cluster.Handler(c))
	httpDone := make(chan error, 1)
	go func() { httpDone <- srv.Serve(ln) }()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigs)
	fmt.Fprintf(out, "arserved: %d-shard cluster, %d stations, listening on %s\n",
		c.Shards(), ccfg.Net.NumStations(), ln.Addr())

	select {
	case sig := <-sigs:
		fmt.Fprintf(out, "arserved: %v, draining cluster\n", sig)
	case err := <-httpDone:
		_ = c.Stop()
		return fmt.Errorf("http server: %w", err)
	case <-c.Done():
	}

	if err := c.Drain(); err != nil && !errors.Is(err, serve.ErrStopped) {
		fmt.Fprintf(out, "arserved: drain: %v\n", err)
	}
	select {
	case <-c.Done():
		fmt.Fprintln(out, "arserved: cluster drained cleanly")
	case <-time.After(drainAfter):
		fmt.Fprintf(out, "arserved: drain timeout after %v, stopping with streams in flight\n", drainAfter)
	}
	if err := c.Stop(); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

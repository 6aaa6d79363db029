package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestMetricTablesMatchBenchmarkJSON pins the program's metric tables to
// the ones BENCHMARK.json declares, names and units, in order.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	for _, c := range []struct {
		kind string
		code []metricDef
		json []specMetric
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		if len(c.code) != len(c.json) {
			t.Fatalf("%s: %d metrics in code, %d in BENCHMARK.json", c.kind, len(c.code), len(c.json))
		}
		for i, d := range c.code {
			if d.name != c.json[i].Name || d.unit != c.json[i].Unit {
				t.Errorf("%s[%d]: code has %s (%s), BENCHMARK.json %s (%s)", c.kind, i, d.name, d.unit, c.json[i].Name, c.json[i].Unit)
			}
			if !metricName.MatchString(d.name) {
				t.Errorf("%s: bad metric name %q", c.kind, d.name)
			}
		}
	}
}

// TestShortRunsEmitEveryMetric runs every BENCHMARK.json workload for a
// few slots, untraced and traced, and checks the result line: correct,
// nothing failed, and exactly the declared metrics with their units.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			var out bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "1", "--trace", trace, "--short", "--workdir", t.TempDir()}
			if code := run(args, &out, io.Discard); code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s", w.Name, trace, code, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool                   `json:"correct"`
				Attempted int64                  `json:"attempted"`
				Failed    int64                  `json:"failed"`
				Metrics   map[string]resultValue `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if trace == "1" {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestIngestShort runs the intake workload for a few hundred
// milliseconds per phase; its conservation and queue-bound checks must
// hold.
func TestIngestShort(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-workload", "ingest", "-seed", "3", "-seconds", "1", "-short", "-workdir", t.TempDir()}
	if code := run(args, &out, io.Discard); code != 0 {
		t.Fatalf("exit %d\n%s", code, out.String())
	}
}

// TestAlteredDigestFailsGate checks that the correctness gate compares
// decisions: a timed pass matches the gated pass's per-slot digests, and
// fails once one digest is altered.
func TestAlteredDigestFailsGate(t *testing.T) {
	cfg := steadyConfig
	cfg.slots, cfg.warmup = 40, 5
	x := &runCtx{seed: 5, budget: time.Second, short: true, tr: newTracer(), workDir: t.TempDir()}
	var gated, timed slotAgg
	ref, err := runSlotPass(cfg, x, passGate, &gated, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runSlotPass(cfg, x, passTimed, &timed, ref, 0); err != nil {
		t.Fatalf("unaltered digests: %v", err)
	}
	altered := slices.Clone(ref)
	altered[len(altered)/2] ^= 1
	_, err = runSlotPass(cfg, x, passTimed, &timed, altered, 0)
	if err == nil || !strings.Contains(err.Error(), "correctness gate") {
		t.Fatalf("altered digest: got %v, want a correctness-gate failure", err)
	}
}

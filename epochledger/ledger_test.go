package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"dcfp/internal/monitor"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests check against.
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

// TestSmokeEveryMetric runs every workload briefly, untraced and traced,
// and checks the output names every metric BENCHMARK.json declares, with
// its unit, in the table and in the final JSON line, and that no epoch
// failed.
func TestSmokeEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the ledger runs %d", len(spec.Workloads), len(workloads))
	}
	out := t.TempDir()
	for _, w := range spec.Workloads {
		for trace, want := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "7", "--seconds", "0.01", "--trace", []string{"0", "1"}[trace], "--out", out}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res jsonResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%v: last line is not the result: %v", args, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%v: correct=%t attempted=%d failed=%d", args, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%v: %d metrics, BENCHMARK.json declares %d", args, len(res.Metrics), len(want))
			}
			table := strings.Join(lines[:len(lines)-1], "\n")
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%v: metric %s = %+v, want unit %s", args, m.Name, got, m.Unit)
				}
				if !strings.Contains(table, m.Name+" ") || !strings.Contains(table, " "+m.Unit+" ") {
					t.Errorf("%v: table lacks %s with unit %s", args, m.Name, m.Unit)
				}
			}
		}
	}
}

// TestPlantedWrongReferenceFails proves the fleet's N-shard = single-node
// check can fail: a reference report altered before the comparison must
// mark epochs failed, while the same run without the plant has none.
func TestPlantedWrongReferenceFails(t *testing.T) {
	w := workload{name: "fleet-test", machines: 100, shards: 2, epochs: 20}
	for _, planted := range []bool{false, true} {
		r := &runner{w: w, seed: 3, stderr: io.Discard}
		if planted {
			r.plant = func(rep *monitor.EpochReport) { rep.Coverage /= 2 }
		}
		res, err := r.endToEnd()
		if err != nil {
			t.Fatal(err)
		}
		if got := res.failed > 0; got != planted {
			t.Errorf("planted=%t: %d of %d epochs failed", planted, res.failed, res.attempted)
		}
		for _, m := range res.extra {
			if m.name == "failed_frac" && (m.value > 0) != planted {
				t.Errorf("planted=%t: failed_frac %v", planted, m.value)
			}
		}
	}
}

// TestObserveTimeAttributed checks that on a crisis replay the program's
// stage histograms account for all but 5% of ObserveEpoch time.
func TestObserveTimeAttributed(t *testing.T) {
	w := workload{name: "crisis-test", machines: 100, crises: 1}
	r := &runner{w: w, seed: 42, stderr: io.Discard}
	res, err := r.traced(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("%d of %d epochs failed", res.failed, res.attempted)
	}
	vals := map[string]float64{}
	for _, m := range res.gated {
		vals[m.name] = m.value
	}
	observe, unattributed := vals["monitor.observe_s"], vals["monitor.unattributed_s"]
	if vals["logreg.selection_count"] < 1 {
		t.Fatal("no crisis closed, so no selection ran")
	}
	if observe <= 0 || unattributed >= 0.05*observe {
		t.Errorf("unattributed %.4fs of %.4fs observe time", unattributed, observe)
	}
}

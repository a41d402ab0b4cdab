package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the parts of BENCHMARK.json the test compares with
// the program's own tables.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the metric and
// workload tables the program prints from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q differs from the program's %q", i, b.Workloads[i].Name, w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, got, d)
		}
	}
	for i, d := range perLayer {
		got := b.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, got, d)
		}
	}
}

// TestSmoke runs both passes of every workload at -smoke scale in the command
// form BENCHMARK.json uses and checks structure only: the last line is the
// result object, it names exactly the pass's metrics with finite values, and
// nothing failed. It asserts no timing.
func TestSmoke(t *testing.T) {
	// The scratch directories land under the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, w := range workloads {
		for _, pass := range []struct {
			trace string
			defs  []metricDef
		}{{"0", endToEnd}, {"1", perLayer}} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-smoke", "-workload", w.name, "-seed", "7", "-trace", pass.trace}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s -trace %s: exit %d: %s", w.name, pass.trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s -trace %s: last line is not the result object: %v", w.name, pass.trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s -trace %s: correct=%v attempted=%d failed=%d", w.name, pass.trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(pass.defs) {
				t.Errorf("%s -trace %s: %d metrics, want %d", w.name, pass.trace, len(res.Metrics), len(pass.defs))
			}
			for _, d := range pass.defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s -trace %s: metric %s = %+v (present %v)", w.name, pass.trace, d.Name, m, ok)
				}
				if pass.trace == "0" && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, m.Value)
				}
				if !strings.Contains(stdout.String(), d.Name+" ") {
					t.Errorf("%s -trace %s: metric %s is not printed by name", w.name, pass.trace, d.Name)
				}
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	q1, q2, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q2 != 24 || q3 != 160 {
		t.Errorf("quartiles = %v %v %v, want 3.5 24 160", q1, q2, q3)
	}
}

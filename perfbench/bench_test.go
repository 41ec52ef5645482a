package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the self-test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// tiny returns w at a size that runs in well under a second, unpinned.
func tiny(w *workload) *workload {
	t := *w
	t.run.n, t.run.warm = 2*chunkInsts, 5_000
	if w.sweep() {
		t.run.n, t.run.warm = 500, 2_000
	}
	t.pins = nil
	return &t
}

// TestDeclaredMetrics holds BENCHMARK.json and the emitted names and
// units together.
func TestDeclaredMetrics(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	for _, set := range []struct {
		declared []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}
		emitted map[string]string
	}{{bj.EndToEnd, endToEndUnits}, {bj.PerLayer, perLayerUnits}} {
		if len(set.declared) != len(set.emitted) {
			t.Errorf("BENCHMARK.json declares %d metrics, the benchmark emits %d", len(set.declared), len(set.emitted))
		}
		for _, m := range set.declared {
			if u, ok := set.emitted[m.Name]; !ok || u != m.Unit {
				t.Errorf("metric %s: declared unit %q, emitted %q (present %v)", m.Name, m.Unit, u, ok)
			}
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if findWorkload(w.Name) == nil {
			t.Errorf("declared workload %s does not exist", w.Name)
		}
	}
}

// TestWorkloadsTiny runs every workload untraced and traced at a tiny
// size: the correctness gate must pass and every metric be emitted with
// its unit.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, rep, err := run(tiny(w), 1, time.Millisecond, traced, "")
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d errors=%v",
					w.name, traced, res.Correct, res.Attempted, res.Failed, rep.Errors)
			}
			units := endToEndUnits
			if traced {
				units = perLayerUnits
			}
			if len(res.Metrics) != len(units) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(units))
			}
			for name, unit := range units {
				if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, name, m, unit)
				}
			}
		}
	}
}

// TestGateCatchesMismatch checks that a wrong pinned digest fails the run.
func TestGateCatchesMismatch(t *testing.T) {
	for _, name := range []string{"seg_swim", "fig2_sweep"} {
		w := tiny(findWorkload(name))
		w.pins = map[uint64]string{1: "not-the-digest"}
		res, _, err := run(w, 1, time.Millisecond, false, "")
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: a wrong pin gave correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
		}
	}
}

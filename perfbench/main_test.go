package main

import (
	"encoding/json"
	"maps"
	"os"
	"testing"
	"time"

	"repro/perfbench/bench"
)

// spec is the part of BENCHMARK.json the tests check the output against.
type spec struct {
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

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// quickRun executes one quick run and fails the test on any error or
// failed check.
func quickRun(t *testing.T, workload string, seed int64, traced bool) (bench.Result, map[string]uint64) {
	t.Helper()
	r, _, err := execute(workload, seed, time.Second, traced, true, t.TempDir())
	if err != nil {
		t.Fatalf("%s seed %d traced=%v: %v", workload, seed, traced, err)
	}
	res, failures := r.Result()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%s seed %d traced=%v: correct=%v attempted=%d failed=%d %v",
			workload, seed, traced, res.Correct, res.Attempted, res.Failed, failures)
	}
	return res, r.Counts()
}

// checkNames fails unless res carries exactly the metrics of want, each
// with its unit.
func checkNames(t *testing.T, label string, res bench.Result, want []specMetric) {
	t.Helper()
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", label, m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", label, m.Name, got.Unit, m.Unit)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", label, len(res.Metrics), len(want))
	}
}

// TestQuickWorkloads runs every workload briefly, timed and traced, and
// checks that every metric BENCHMARK.json names is emitted with its
// unit and that no operation failed.
func TestQuickWorkloads(t *testing.T) {
	s := loadSpec(t)
	for _, w := range s.Workloads {
		res, _ := quickRun(t, w.Name, 1, false)
		checkNames(t, w.Name, res, s.EndToEnd)
		res, _ = quickRun(t, w.Name, 1, true)
		checkNames(t, w.Name+" traced", res, s.PerLayer)
	}
}

// TestDeterministicCounts checks that the counts later changes may rest
// claims on repeat exactly across two runs with the same seed.
func TestDeterministicCounts(t *testing.T) {
	_, a := quickRun(t, "campaign", 3, true)
	_, b := quickRun(t, "campaign", 3, true)
	for _, name := range []string{"emu.tbs_compiled.threaded_dsp", "fault.insts_probe.threaded", "vp.restore_bytes", "store.journal_bytes", "fault.outcomes.threaded.masked"} {
		if _, ok := a[name]; !ok {
			t.Errorf("count %s missing", name)
		}
	}
	if !maps.Equal(a, b) {
		t.Errorf("counts differ between two runs of one seed:\n%v\n%v", a, b)
	}
}

// TestHeldOutSeed checks that the held-out seed produces every metric
// and passes every check.
func TestHeldOutSeed(t *testing.T) {
	s := loadSpec(t)
	res, _ := quickRun(t, "service", 9001, false)
	checkNames(t, "seed 9001", res, s.EndToEnd)
	res, _ = quickRun(t, "service", 9001, true)
	checkNames(t, "seed 9001 traced", res, s.PerLayer)
}

// Command perfbench is the ecosystem's benchmark. One invocation runs one
// workload for a fixed number of rounds sized to the requested time on
// the reference host, checks every output against an in-process
// or Go reference, and prints every metric by name and unit; the last
// line of standard output is the result object
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (normally through run.sh, which builds it first):
//
//	perfbench --workload guest_long|campaign|service --seed N --seconds S --trace 0|1
//
// Every run sets up and measures three phases, one per layer stack:
// guestlong (emu and mem on long guest runs), campaign (fault campaigns:
// restore, injection, retranslation, classification) and service (the
// job service over loopback HTTP with its journal). The workload names
// the phase that gets half of the measured time; the other two get a
// quarter each, so every workload reports every end-to-end metric. The
// phases' rounds are interleaved, so a slow spell of the host hits all
// of them. With --trace 1 the run is the separate traced run: it reports
// the per-layer metrics and the self time of every layer instead.
//
// Held-out seed: claims made on seeds used while developing a change are
// verified again on seed 9001.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/perfbench/bench"
	"repro/perfbench/campaign"
	"repro/perfbench/guestlong"
	"repro/perfbench/service"
)

// phase is one measured part of the system.
type phase interface {
	Round(r *bench.Run)          // one measured round of every configuration
	NominalRound() time.Duration // a full-size round's length on the reference host
	Report(r *bench.Run)         // the end-to-end metrics from all rounds
	Trace(r *bench.Run) error
	Close() error
}

// phaseNames names the phases in setup order; each workload is named
// after the phase it gives focalShare of the measured time.
var phaseNames = []string{"guest_long", "campaign", "service"}

// focalShare is the share of the measured time the workload's own phase
// gets; the other two split the rest.
const focalShare = 0.5

// minRounds is the fewest rounds a phase runs, warm-up included, for a
// share of the measured time shorter than that many nominal rounds.
const minRounds = 4

// setupReps is how many times a run sets everything up; setup_s is the
// median.
const setupReps = 3

// layers lists the layers whose self time the traced run reports.
var layers = []string{"bench", "emu", "vp", "qta", "flow", "fault", "serve", "store"}

func main() {
	workload := flag.String("workload", "", "workload: guest_long, campaign or service")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1: the traced per-layer run")
	state := flag.String("state", ".bench_build", "directory for results, spans and the service journal")
	flag.Parse()
	if !slices.Contains(phaseNames, *workload) || flag.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload guest_long|campaign|service --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := run(*workload, *seed, *seconds, *trace == 1, *state); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, traced bool, state string) error {
	results := filepath.Join(state, "results")
	if err := os.MkdirAll(results, 0o755); err != nil {
		return err
	}
	r, tracer, err := execute(workload, seed, time.Duration(seconds*float64(time.Second)), traced, false, state)
	if err != nil {
		return err
	}
	return report(r, tracer, workload, seconds, traced, results)
}

// execute sets every phase up setupReps times (once for the traced
// run), then either measures them for d, the workload's phase getting
// focalShare of it, or runs the traced passes. Quick mode, used by the
// tests, shrinks every phase to a smoke-test size.
func execute(workload string, seed int64, d time.Duration, traced, quick bool, state string) (*bench.Run, *bench.Tracer, error) {
	r := bench.NewRun(seed, quick, nil)
	reps := setupReps
	if traced {
		reps = 1
	}
	var phases []phase
	var setups []float64
	for i := 0; i < reps; i++ {
		if err := closeAll(phases); err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		var err error
		if phases, err = setup(r, state); err != nil {
			closeAll(phases)
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.Detailf("setup_s samples: %v", setups)

	var tracer *bench.Tracer
	if traced {
		tracer = bench.NewTracer()
		if err := traceRun(r, phases, tracer); err != nil {
			closeAll(phases)
			return nil, nil, err
		}
	} else {
		r.Set("setup_s", "s", bench.Median(setups))
		measure(r, phases, workload, d)
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.Set("heap_live_mb", "MB", float64(ms.HeapAlloc)/1e6)
	}
	return r, tracer, closeAll(phases)
}

// measure runs every phase a fixed number of rounds: its share of d
// over its nominal round length, at least minRounds. The counts depend
// on d alone, so every run takes the same samples whatever the host's
// speed, and the service reaches the same history (retained jobs,
// cached binaries) in every run. The rounds are interleaved in
// proportion to the counts, the phase furthest behind its count running
// next, so a slow spell of the host hits every phase alike. Then each
// phase reports.
func measure(r *bench.Run, phases []phase, workload string, d time.Duration) {
	target := make([]int, len(phases))
	for i, ph := range phases {
		share := (1 - focalShare) / float64(len(phases)-1)
		if phaseNames[i] == workload {
			share = focalShare
		}
		target[i] = max(minRounds, int(share*float64(d)/float64(ph.NominalRound())))
	}
	rounds := make([]int, len(phases))
	spent := make([]time.Duration, len(phases))
	for {
		next := -1
		for i := range phases {
			if rounds[i] < target[i] && (next < 0 || rounds[i]*target[next] < rounds[next]*target[i]) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		t0 := time.Now()
		phases[next].Round(r)
		spent[next] += time.Since(t0)
		rounds[next]++
	}
	for i, ph := range phases {
		ph.Report(r)
		r.Detailf("%s phase: %d rounds in %.2f s", phaseNames[i], rounds[i], spent[i].Seconds())
	}
}

// setup builds every phase's fixture, in phase order.
func setup(r *bench.Run, state string) ([]phase, error) {
	var out []phase
	g, err := guestlong.Setup(r)
	if err != nil {
		return out, fmt.Errorf("guest_long setup: %w", err)
	}
	out = append(out, g)
	c, err := campaign.Setup(r)
	if err != nil {
		return out, fmt.Errorf("campaign setup: %w", err)
	}
	out = append(out, c)
	s, err := service.Setup(r, state)
	if err != nil {
		return out, fmt.Errorf("service setup: %w", err)
	}
	return append(out, s), nil
}

func closeAll(phases []phase) error {
	var first error
	for _, ph := range phases {
		if err := ph.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// traceRun runs every phase's traced pass twice, first untraced for the
// wall time tracing is compared against, then with spans recorded, and
// reports each layer's self time.
func traceRun(r *bench.Run, phases []phase, tracer *bench.Tracer) error {
	var untraced, traced time.Duration
	var ms0, ms1 runtime.MemStats
	for i, ph := range phases {
		r.Trace = nil
		t0 := time.Now()
		if err := ph.Trace(r); err != nil {
			return fmt.Errorf("%s trace: %w", phaseNames[i], err)
		}
		untraced += time.Since(t0)

		r.Trace = tracer
		runtime.ReadMemStats(&ms0)
		before, _ := r.Result()
		t0 = time.Now()
		if err := ph.Trace(r); err != nil {
			return fmt.Errorf("%s trace: %w", phaseNames[i], err)
		}
		traced += time.Since(t0)
		runtime.ReadMemStats(&ms1)
		after, _ := r.Result()
		ops := max(after.Attempted-before.Attempted, 1)
		r.Set("runtime.alloc_mb_per_op."+phaseNames[i], "MB", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6/float64(ops))
		r.Set("runtime.gc_cycles."+phaseNames[i], "count", float64(ms1.NumGC-ms0.NumGC))
	}
	self := tracer.SelfTimes()
	var sum time.Duration
	for _, l := range layers {
		r.Set("self_ms."+l, "ms", float64(self[l])/1e6)
	}
	for l, d := range self {
		sum += d
		if !slices.Contains(layers, l) {
			r.Failf("span layer %q is not reported", l)
		}
	}
	r.Set("trace.self_sum_ms", "ms", float64(sum)/1e6)
	r.Set("trace.untraced_wall_ms", "ms", float64(untraced)/1e6)
	r.Set("trace.traced_wall_ms", "ms", float64(traced)/1e6)
	r.Set("trace.self_sum_over_untraced", "ratio", float64(sum)/float64(untraced))
	return nil
}

// env is the environment record written beside each run's results, so
// host drift between two sets of runs can be told apart from a change.
type env struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	RefWindows int     `json:"ref_windows"`
	RefMedian  float64 `json:"ref_median_ms"`
	RefMin     float64 `json:"ref_min_ms"`
	RefMax     float64 `json:"ref_max_ms"`
	RefNominal float64 `json:"ref_nominal_ms"`
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// report prints the details, the deterministic counts, the environment
// record and, last, the result object; it also writes them (and the
// spans of a traced run) under the results directory.
func report(r *bench.Run, tracer *bench.Tracer, workload string, seconds float64, traced bool, dir string) error {
	n, med, lo, hi := r.Ref.Summary()
	commit := os.Getenv("S4E_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	e := env{
		Commit: commit, GoVersion: runtime.Version(), CPUModel: cpuModel(),
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Workload: workload, Seed: r.Seed, Seconds: seconds, Traced: traced,
		RefWindows: n, RefMedian: med, RefMin: lo, RefMax: hi,
		RefNominal: float64(bench.NominalRef) / float64(time.Millisecond),
	}
	res, failures := r.Result()
	for _, d := range r.Details() {
		fmt.Println(d)
	}
	for _, f := range failures {
		fmt.Println("FAILED:", f)
	}
	counts := r.Counts()
	doc := map[string]any{"env": e, "counts": counts, "result": res, "details": r.Details(), "failures": failures}
	base := fmt.Sprintf("%s-seed%d-trace%d-%d", workload, r.Seed, map[bool]int{false: 0, true: 1}[traced], os.Getpid())
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if tracer != nil {
		f, err := os.Create(filepath.Join(dir, base+".spans.jsonl"))
		if err != nil {
			return err
		}
		if err := tracer.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	cj, _ := json.Marshal(map[string]any{"counts": counts})
	ej, _ := json.Marshal(map[string]any{"env": e})
	fmt.Println(string(cj))
	fmt.Println(string(ej))
	rj, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(rj))
	return nil
}

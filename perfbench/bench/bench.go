// Package bench is the measurement core shared by the benchmark's
// phases: the run record that collects metrics, checks and
// deterministic counts; quantiles over raw samples; the host-speed
// reference loop that normalises CPU-bound rates; and the in-memory span
// tracer of the traced run.
package bench

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Run collects everything one benchmark invocation reports. Its methods
// are safe for concurrent use.
type Run struct {
	Seed  int64
	Quick bool     // shrink every phase to a smoke-test size
	Trace *Tracer  // nil in timed runs
	Ref   *HostRef // host-speed reference loop

	mu        sync.Mutex
	metrics   map[string]Metric
	counts    map[string]uint64
	details   []string
	failures  []string
	attempted int
	failed    int
}

// NewRun starts an empty run record.
func NewRun(seed int64, quick bool, tr *Tracer) *Run {
	return &Run{
		Seed: seed, Quick: quick, Trace: tr, Ref: &HostRef{},
		metrics: map[string]Metric{}, counts: map[string]uint64{},
	}
}

// Set records a metric. NaN and infinite values are failures, since
// they cannot be reported.
func (r *Run) Set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.Failf("metric %s is %v", name, v)
		return
	}
	r.mu.Lock()
	r.metrics[name] = Metric{Value: v, Unit: unit}
	r.mu.Unlock()
}

// Count records a deterministic count: two runs with the same seed must
// produce the same value.
func (r *Run) Count(name string, v uint64) {
	r.mu.Lock()
	r.counts[name] = v
	r.mu.Unlock()
}

// Detailf adds one human-readable line to the run's report.
func (r *Run) Detailf(format string, args ...any) {
	r.mu.Lock()
	r.details = append(r.details, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// Op accounts one attempted operation; a non-nil err marks it failed.
func (r *Run) Op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// Failf records a failed check that is not an operation of its own.
func (r *Run) Failf(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// Result is the run's final report.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Result returns the final report and the recorded failure messages.
func (r *Run) Result() (Result, []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := make(map[string]Metric, len(r.metrics))
	for k, v := range r.metrics {
		m[k] = v
	}
	return Result{
		Correct:   len(r.failures) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   m,
	}, append([]string(nil), r.failures...)
}

// Counts returns a copy of the deterministic counts.
func (r *Run) Counts() map[string]uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := make(map[string]uint64, len(r.counts))
	for k, v := range r.counts {
		c[k] = v
	}
	return c
}

// Details returns the report lines.
func (r *Run) Details() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.details...)
}

// Quantile returns the q-quantile of the raw samples by nearest rank:
// the smallest sample with at least q of all samples at or below it.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// Median is the middle sample (the mean of the two middle samples for an
// even count).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Mean is the arithmetic mean of the samples.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

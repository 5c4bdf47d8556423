package bench

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// The host's speed drifts between and within processes (a fixed loop
// varies by about 15 % across back-to-back processes on a small shared
// host, with CPU time tracking wall time), so a CPU-bound rate is scaled
// by how slowly a fixed pure-Go reference loop ran around the sample:
//
//	normalised = raw × observed reference time / NominalRef
//
// A host running slow stretches the reference window and the sample
// alike, so the product reads what the sample would have measured at
// the nominal speed.
// The reference calls no repository code, so no change to the program
// under test can move it.

// refIters sizes one reference window: about 4 ms on a 2-CPU x86-64
// cloud host.
const refIters = 600_000

// NominalRef is the reference window time the normalised rates are
// expressed at.
const NominalRef = 4 * time.Millisecond

// refSink keeps the reference loop's result observable.
var refSink struct {
	sync.Mutex
	v uint32
}

// refLoop is the reference work: an LCG feeding table loads, stores and
// a data-dependent branch, the instruction mix of an interpreter loop.
func refLoop() uint32 {
	var tab [256]uint32
	x := uint32(1)
	for i := 0; i < refIters; i++ {
		x = x*1664525 + 1013904223
		j := x >> 24
		v := tab[j] ^ x
		if v&1 != 0 {
			v += tab[(j+1)&255]
		}
		tab[j] = v
	}
	return x ^ tab[7]
}

// HostRef times reference windows and keeps every observed window for
// the run's environment record.
type HostRef struct {
	mu  sync.Mutex
	obs []time.Duration
}

// Time forces a collection, so garbage left by the program under test
// cannot slow the window, then runs the reference loop on the given
// number of goroutines at once and returns the window's wall time.
func (h *HostRef) Time(goroutines int) time.Duration {
	if goroutines < 1 {
		goroutines = 1
	}
	runtime.GC()
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := refLoop()
			refSink.Lock()
			refSink.v ^= v
			refSink.Unlock()
		}()
	}
	wg.Wait()
	d := time.Since(start)
	h.mu.Lock()
	h.obs = append(h.obs, d)
	h.mu.Unlock()
	return d
}

// Sample is one normalised measurement.
type Sample struct {
	Raw  float64       // work per second as measured
	Norm float64       // Raw scaled to the nominal host speed
	Ref  time.Duration // mean of the two bracketing reference windows
}

// Measure brackets f with reference windows on as many goroutines as f
// uses and returns its work rate, raw and normalised. Only f's own
// execution is timed.
func (h *HostRef) Measure(goroutines int, f func() (work float64, err error)) (Sample, error) {
	before := h.Time(goroutines)
	start := time.Now()
	work, err := f()
	d := time.Since(start)
	after := h.Time(goroutines)
	if err != nil {
		return Sample{}, err
	}
	ref := (before + after) / 2
	raw := work / d.Seconds()
	return Sample{Raw: raw, Norm: raw * float64(ref) / float64(NominalRef), Ref: ref}, nil
}

// SetRate sets a normalised rate metric to the median of its samples
// and writes the raw rate and the reference time beside it.
func (r *Run) SetRate(name, unit string, ss []Sample, note string) {
	var norm, raw, ref []float64
	for _, s := range ss {
		norm = append(norm, s.Norm)
		raw = append(raw, s.Raw)
		ref = append(ref, float64(s.Ref)/float64(time.Millisecond))
	}
	r.Set(name, unit, Median(norm))
	r.Detailf("%s: %.2f %s normalised, raw %.2f, reference %.3f ms, %d samples%s",
		name, Median(norm), unit, Median(raw), Median(ref), len(ss), note)
}

// Summary returns the count, median, minimum and maximum of the
// reference windows timed so far, in milliseconds.
func (h *HostRef) Summary() (n int, median, min, max float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.obs) == 0 {
		return 0, 0, 0, 0
	}
	ms := make([]float64, len(h.obs))
	for i, d := range h.obs {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	return len(ms), Median(ms), ms[0], ms[len(ms)-1]
}

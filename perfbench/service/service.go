// Package service is the job-service phase of the benchmark: the real
// serve.Server handler behind a 127.0.0.1 listener, with its journal
// (serve/store) on in a directory of the run, driven over HTTP exactly as
// a client would: POST /v1/jobs, read the server-sent event stream to the
// terminal event, GET the result and check it against an in-process
// reference.
//
// The mix is fault, qta, wcet and run jobs over short seeded kernels.
// Every other job reuses one binary, so the server's per-binary cache of
// golden runs and translation pools hits; the rest are unique seeded
// binaries that miss it and pay a golden run or an analysis. Job latency
// is measured open loop at one fixed rate, from each job's due time to
// its result (a failed job misses any limit; the content of every result
// is checked after the measured phase), and throughput closed loop with
// one client per CPU; the two alternate within a run. It is chosen because it isolates
// HTTP admission, queue wait, the cross-job cache, event streaming and
// journal appends, which the guest and campaign phases never touch.
package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/store"

	"repro/perfbench/bench"
	"repro/perfbench/kernels"
)

// OpenRate is the open-loop arrival rate in jobs per second, a quarter
// to a third of the closed-loop capacity of the seed commit on a 2-CPU
// x86-64 host (450-650 jobs/s). At half the capacity the queue builds up
// whenever the collector runs and the latency quantiles swing by tens
// of milliseconds from run to run.
const OpenRate = 150

// windowJobs is the job count of one open-loop window: twenty samples
// beyond the 95th percentile. With ten, a window's p95 swung with
// whether one more collection fell into it.
const windowJobs = 400

// closedJobs is the job count of one closed-loop window, about a third
// of a second of work.
const closedJobs = 200

// kinds is the job mix, in rotation order.
var kinds = []string{"fault", "qta", "wcet", "run"}

// faultSpec is the campaign every fault job runs.
func faultSpec(seed int64) *serve.FaultSpec {
	return &serve.FaultSpec{Seed: seed, GPRTransient: 12, MemPermanent: 6, CodeBitflip: 6, Workers: 1}
}

// Fixture is a running server, its journal and an HTTP client.
type Fixture struct {
	seed    int64
	quick   bool
	dir     string
	st      *store.Store
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	url     string
	client  *http.Client
	workers int
	next    atomic.Int64 // next job index of the mix

	windows []window        // one per round
	refs    []time.Duration // reference windows bracketing the rounds
	late    []float64       // generator lateness of open-loop jobs, ms
	jobs    []*job          // finished jobs awaiting their check
}

// window is one round's open-loop quantiles and closed-loop throughput.
type window struct {
	jobs     int     // open-loop jobs
	p50, p95 float64 // ms
	beyond   int     // samples beyond p95
	rate     float64 // jobs/s
}

// Setup opens the journal in a fresh directory under state, starts the
// server on a loopback listener and warms it with one job of each kind
// on the shared binary and on a unique one.
func Setup(r *bench.Run, state string) (*Fixture, error) {
	f := &Fixture{seed: r.Seed, quick: r.Quick, workers: runtime.NumCPU()}
	var err error
	if f.dir, err = os.MkdirTemp(state, "serve-"); err != nil {
		return nil, err
	}
	if f.st, err = store.Open(f.dir); err != nil {
		os.RemoveAll(f.dir)
		return nil, err
	}
	f.srv = serve.New(serve.Config{
		Workers: f.workers, QueueDepth: 256, DefaultTimeout: time.Minute, Store: f.st,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Close()
		return nil, err
	}
	f.url = "http://" + ln.Addr().String()
	f.hs = &http.Server{Handler: f.srv.Handler()}
	f.served = make(chan error, 1)
	go func() { f.served <- f.hs.Serve(ln) }()
	f.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: f.workers, MaxIdleConnsPerHost: f.workers, DisableCompression: true,
	}}
	for i := 0; i < 2*len(kinds); i++ {
		j := f.job(context.Background(), time.Now())
		if err := verify(j, newRefs(f.seed)); err != nil {
			f.Close()
			return nil, fmt.Errorf("warm-up %s job: %w", j.kind, err)
		}
	}
	return f, nil
}

// Close stops the HTTP server, drains the job server, closes the journal
// and removes its directory.
func (f *Fixture) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var errs []error
	if f.hs != nil {
		errs = append(errs, f.hs.Shutdown(ctx))
		if err := <-f.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	if f.srv != nil {
		errs = append(errs, f.srv.Shutdown(ctx))
	}
	if f.st != nil {
		errs = append(errs, f.st.Close())
	}
	errs = append(errs, os.RemoveAll(f.dir))
	return errors.Join(errs...)
}

// mixEntry is job i of the mix: its kind, its kernel (every other job
// shares one kernel; the rest are unique) and its request.
func (f *Fixture) mixEntry(i int64) (string, kernels.Kernel, serve.Request) {
	kind := kinds[(i/2)%int64(len(kinds))]
	kseed := f.seed + 2
	if i%2 == 1 {
		kseed = f.seed<<24 + i
	}
	k := kernels.DSP(kseed, kernels.Short)
	req := serve.Request{Type: kind, Source: k.Source, Budget: k.Budget}
	switch kind {
	case "fault":
		req.Fault = faultSpec(f.seed)
	case "wcet", "qta":
		infer := false
		req.Bounds, req.InferBounds = k.Bounds, &infer
	}
	return kind, k, req
}

// job is one job's client-side record.
type job struct {
	kind   string
	k      kernels.Kernel
	req    serve.Request
	id     string
	err    error
	result json.RawMessage
	status serve.Status // as the result GET returned it, with the server's times

	// The client's clock: due, sent, the 202 read, the terminal event
	// read and the result read.
	due, sent, accepted, terminal, done time.Time
}

// latency is the job's time from due to checked result; a failed job
// misses any latency limit.
func (j *job) latency() float64 {
	if j.err != nil {
		return math.Inf(1)
	}
	return ms(j.done.Sub(j.due))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// job runs the next job of the mix to its result. Only the terminal
// state is checked here; the content is checked after the measured phase.
func (f *Fixture) job(ctx context.Context, due time.Time) *job {
	i := f.next.Add(1) - 1
	kind, k, req := f.mixEntry(i)
	j := &job{kind: kind, k: k, req: req, due: due}
	j.sent = time.Now()
	j.err = f.exchange(ctx, j)
	j.done = time.Now()
	return j
}

func (f *Fixture) exchange(ctx context.Context, j *job) error {
	body, err := json.Marshal(j.req)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.client.Do(req)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	var st serve.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	}
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	j.id = st.ID
	j.accepted = time.Now()

	if err := f.events(ctx, j); err != nil {
		return err
	}

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, f.url+"/v1/jobs/"+j.id+"/result", nil)
	if err != nil {
		return err
	}
	resp, err = f.client.Do(req)
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	var rb struct {
		Status serve.Status    `json:"status"`
		Result json.RawMessage `json:"result"`
	}
	err = json.NewDecoder(resp.Body).Decode(&rb)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		return fmt.Errorf("result: HTTP %d: %v", resp.StatusCode, err)
	}
	if rb.Status.State != serve.StateDone {
		return fmt.Errorf("job %s %s: %s", j.id, rb.Status.State, rb.Status.Error)
	}
	j.result, j.status = rb.Result, rb.Status
	return nil
}

// events reads the job's event stream to its terminal event, stamping
// the terminal event as it arrives.
func (f *Fixture) events(ctx context.Context, j *job) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.url+"/v1/jobs/"+j.id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 16<<20) // a terminal event may carry a large result
	for sc.Scan() {
		ev, ok := strings.CutPrefix(sc.Text(), "event: ")
		if !ok {
			continue
		}
		switch ev {
		case string(serve.StateDone):
			j.terminal = time.Now()
			_, err := io.Copy(io.Discard, resp.Body)
			return err
		case string(serve.StateErrored), string(serve.StateCancelled):
			return fmt.Errorf("job %s %s", j.id, ev)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("events: %w", err)
	}
	return fmt.Errorf("events: stream of job %s ended before its terminal event", j.id)
}

// openLoop issues n jobs at OpenRate, each on its own goroutine at its
// due time (at most 64 in flight), and returns them once all finished.
func (f *Fixture) openLoop(ctx context.Context, n int) []*job {
	out := make([]*job, n)
	sem := make(chan struct{}, 64)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / OpenRate * float64(time.Second)))
		time.Sleep(time.Until(due))
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = f.job(ctx, due)
			<-sem
		}(i)
	}
	wg.Wait()
	return out
}

// closedLoop runs one client per CPU, each sending its next job when the
// previous one finished, until n jobs were sent; it returns the finished
// jobs and the window's length. A fixed count rather than a fixed time
// keeps the server's history — retained jobs, cached binaries, the heap
// they hold — the same at every window of every run.
func (f *Fixture) closedLoop(ctx context.Context, n int) ([]*job, time.Duration) {
	var mu sync.Mutex
	var out []*job
	var wg sync.WaitGroup
	var sent atomic.Int64
	start := time.Now()
	for c := 0; c < f.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sent.Add(1) <= int64(n) {
				j := f.job(ctx, time.Now())
				mu.Lock()
				out = append(out, j)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// nominalRound is how long one round takes on the 2-CPU host OpenRate was
// set on.
const nominalRound = 3000 * time.Millisecond

// NominalRound returns the length of one full-size round on the
// reference host. The server keeps finished jobs and caches every binary
// it saw, so later windows run against a larger heap; a round count
// fixed by it keeps the means across windows covering the same windows
// in every run.
func (f *Fixture) NominalRound() time.Duration { return nominalRound }

// Round runs one open-loop window of windowJobs jobs at OpenRate, then
// one closed-loop window, bracketed by reference windows on one
// goroutine per CPU.
func (f *Fixture) Round(r *bench.Run) {
	ctx := context.Background()
	n, nClosed := windowJobs, closedJobs
	if f.quick {
		n, nClosed = 24, 24
	}
	f.refs = append(f.refs, r.Ref.Time(f.workers))
	open := f.openLoop(ctx, n)
	closed, win := f.closedLoop(ctx, nClosed)
	f.refs = append(f.refs, r.Ref.Time(f.workers))

	w := window{jobs: n}
	var lat []float64
	for _, j := range open {
		lat = append(lat, j.latency())
		f.late = append(f.late, ms(j.sent.Sub(j.due)))
	}
	w.p50, w.p95 = bench.Quantile(lat, 0.50), bench.Quantile(lat, 0.95)
	for _, l := range lat {
		if l > w.p95 {
			w.beyond++
		}
	}
	for _, j := range closed {
		if j.err == nil {
			w.rate++
		}
	}
	w.rate /= win.Seconds()
	f.windows = append(f.windows, w)
	f.jobs = append(append(f.jobs, open...), closed...)
}

// Report checks every job's result, then sets the means across windows
// of the open-loop quantiles and the closed-loop throughput. The windows
// are not alike: each runs against the history of the ones before, and
// latency grows and throughput falls along the run. Their median would
// pick whichever window lands mid-way on that slope, while their mean
// weighs the same fixed sequence of windows in every run. The server,
// its clients and the collector share the host's CPUs, so the means
// are scaled to the nominal host speed by the phase's reference
// windows, like the CPU-bound rates: a slow spell of the host would
// otherwise move them by as much as it slows the reference.
func (f *Fixture) Report(r *bench.Run) {
	verifyAll(r, f.jobs)
	f.jobs = nil
	var p50s, p95s, rates, refs []float64
	minBeyond, jobs := windowJobs, 0
	for _, w := range f.windows {
		jobs += w.jobs
		p50s, p95s, rates = append(p50s, w.p50), append(p95s, w.p95), append(rates, w.rate)
		minBeyond = min(minBeyond, w.beyond)
	}
	for _, d := range f.refs {
		refs = append(refs, ms(d))
	}
	slow := bench.Median(refs) / ms(bench.NominalRef)
	p50, p95, rate := bench.Mean(p50s), bench.Mean(p95s), bench.Mean(rates)
	r.Set("job_p50_ms", "ms", p50/slow)
	r.Set("job_p95_ms", "ms", p95/slow)
	r.Set("jobs_per_s", "1/s", rate*slow)
	r.Detailf("job latency at %d jobs/s open loop over %d windows, %d jobs, at least %d beyond p95 in each: p50 %.3f ms normalised, raw %.3f ms %v; p95 %.3f ms normalised, raw %.3f ms %v; reference %.3f ms on %d goroutines; generator late p50 %.3f ms",
		OpenRate, len(f.windows), jobs, minBeyond, p50/slow, p50, p50s, p95/slow, p95, p95s,
		bench.Median(refs), f.workers, bench.Quantile(f.late, 0.5))
	r.Detailf("jobs_per_s closed loop with %d clients: %.1f normalised, raw %.1f %v", f.workers, rate*slow, rate, rates)
	if !f.quick && minBeyond < 10 {
		r.Failf("job_p95_ms has only %d samples beyond it in one window", minBeyond)
	}
}

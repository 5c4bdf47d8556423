package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve/store"

	"repro/perfbench/bench"
)

// traceJobs is the open-loop job count of the traced pass.
const traceJobs = 240

// journalJobs is how many jobs' records the journal layer is timed on.
const journalJobs = 64

// Trace runs a fixed open-loop batch, records each job's phases as spans,
// checks the results, scrapes the server's own counters, and times
// journal appends of records shaped like the batch's.
//
// A job's phases: submit (the POST's round trip, client clock), queue
// wait and execution (the server's own submitted, started and finished
// times from the result GET, so a client waiting for a pooled connection
// cannot show up as server time), and result (the result GET's round
// trip). What the client adds besides — its lateness behind the due time
// and the lag from the server finishing the job to the client reading
// the terminal event — is reported apart, and the four parts are set
// against the job's latency.
func (f *Fixture) Trace(r *bench.Run) error {
	tr := r.Trace
	root := tr.Begin("bench.service", 0, "")
	defer tr.End(root)
	n := traceJobs
	if f.quick {
		n = 24
	}
	jobs := f.openLoop(context.Background(), n)

	var submit, queue, exec, result, late, wait, decomp []float64
	for _, j := range jobs {
		if j.err != nil {
			continue
		}
		if j.status.Started == nil || j.status.Finished == nil {
			r.Failf("job %s: result status lacks its started or finished time", j.id)
			continue
		}
		submitted, started, finished := j.status.Submitted, *j.status.Started, *j.status.Finished
		top := tr.Add("bench.job", root, j.id, j.due, j.done)
		tr.Add("serve.submit", top, j.id, j.sent, j.accepted)
		tr.Add("serve.queue_wait", top, j.id, submitted, started)
		tr.Add("serve.exec", top, j.id, started, finished)
		tr.Add("serve.result", top, j.id, j.terminal, j.done)
		s, q, e, res := j.accepted.Sub(j.sent), started.Sub(submitted), finished.Sub(started), j.done.Sub(j.terminal)
		submit = append(submit, ms(s))
		queue = append(queue, ms(q))
		exec = append(exec, ms(e))
		result = append(result, ms(res))
		late = append(late, ms(j.sent.Sub(j.due)))
		wait = append(wait, ms(j.terminal.Sub(finished)))
		decomp = append(decomp, float64(s+q+e+res)/float64(j.done.Sub(j.due)))
	}
	rf := newRefs(r.Seed)
	rf.tr, rf.parent = tr, root
	for _, j := range jobs {
		r.Op(verify(j, rf))
	}
	r.Set("serve.submit_ms", "ms", bench.Median(submit))
	r.Set("serve.queue_wait_ms", "ms", bench.Median(queue))
	r.Set("serve.exec_ms", "ms", bench.Median(exec))
	r.Set("serve.result_ms", "ms", bench.Median(result))
	r.Set("serve.client_late_ms", "ms", bench.Median(late))
	r.Set("serve.client_wait_ms", "ms", bench.Median(wait))
	r.Set("decomp.service_parts_over_whole", "ratio", bench.Median(decomp))
	r.Set("wcet.analyze_ms", "ms", bench.Median(rf.analyze))
	r.Detailf("job decomposition (medians): late %.3f + submit %.3f + queue %.3f + exec %.3f + client wait %.3f + result %.3f ms; submit+queue+exec+result over latency %.3f",
		bench.Median(late), bench.Median(submit), bench.Median(queue), bench.Median(exec),
		bench.Median(wait), bench.Median(result), bench.Median(decomp))

	m, err := f.scrape()
	if err != nil {
		return err
	}
	hit, miss := m[`s4e_serve_pool_jobs_total{cache="hit"}`], m[`s4e_serve_pool_jobs_total{cache="miss"}`]
	r.Set("serve.cache_hit_ratio", "ratio", hit/max(hit+miss, 1))
	r.Set("serve.shed", "count", m["s4e_serve_shed_total"])
	r.Set("serve.queue_depth_peak", "count", m["s4e_serve_queue_depth_peak"])

	return f.traceJournal(r, root, jobs)
}

// scrape reads the server's Prometheus exposition into name → value.
func (f *Fixture) scrape() (map[string]float64, error) {
	resp, err := f.client.Get(f.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: HTTP %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// traceJournal appends a submit and a terminal record for each of the
// batch's first jobs to a fresh journal, timing every append. The
// records carry a fixed time and ID format and no durations, so the
// journal's size repeats exactly for a seed.
func (f *Fixture) traceJournal(r *bench.Run, root int, jobs []*job) error {
	dir, err := os.MkdirTemp(f.dir, "journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var appends []float64
	n := min(journalJobs, len(jobs))
	for i, j := range jobs[:n] {
		body, err := json.Marshal(j.req)
		if err != nil {
			st.Close()
			return err
		}
		res, err := stripDurations(j.result)
		if err != nil {
			st.Close()
			return err
		}
		id := fmt.Sprintf("job-%06d", i)
		for _, rec := range []store.Record{
			{Time: at, Kind: store.RecordSubmit, JobID: id, Type: j.kind, Request: body},
			{Time: at, Kind: store.RecordTerminal, JobID: id, State: "done", Attempts: 1, Result: res},
		} {
			sp := r.Trace.Begin("store.append", root, id)
			t0 := time.Now()
			err := st.Append(rec)
			appends = append(appends, float64(time.Since(t0))/1e3)
			r.Trace.End(sp)
			r.Op(err)
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	fi, err := os.Stat(st.Path())
	if err != nil {
		return err
	}
	r.Set("store.append_us", "us", bench.Median(appends))
	r.Set("store.bytes_per_job", "B", float64(fi.Size())/float64(n))
	r.Count("store.journal_bytes", uint64(fi.Size()))
	return nil
}

// stripDurations drops the wall-clock fields of a result payload.
func stripDurations(raw json.RawMessage) (json.RawMessage, error) {
	if len(raw) == 0 {
		return raw, nil
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, err
	}
	delete(m, "duration_ms")
	return json.Marshal(m)
}

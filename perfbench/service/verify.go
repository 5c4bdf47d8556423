package service

import (
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"repro/internal/asm"
	"repro/internal/fault"
	"repro/internal/flow"
	"repro/internal/timing"
	"repro/internal/vp"

	"repro/perfbench/bench"
)

// refs computes and caches the in-process reference of each distinct
// (kind, source) pair: shared-binary jobs are checked against one
// reference, unique ones each against their own.
type refs struct {
	seed    int64
	prof    *timing.Profile
	fault   map[string][]string
	wcet    map[string]uint64
	analyze []float64 // milliseconds per flow.Analyze call

	tr     *bench.Tracer // spans of the traced run, with their parent
	parent int
}

func newRefs(seed int64) *refs {
	return &refs{seed: seed, prof: timing.EdgeSmall(), fault: map[string][]string{}, wcet: map[string]uint64{}}
}

// faultDetails runs the campaign a fault job runs, in process: the same
// plan over the same golden run, one worker.
func (rf *refs) faultDetails(j *job) ([]string, error) {
	if d, ok := rf.fault[j.req.Source]; ok {
		return d, nil
	}
	prog, err := asm.AssembleAt(vp.Prelude+j.req.Source, vp.RAMBase)
	if err != nil {
		return nil, err
	}
	tg := &fault.Target{Program: prog, Budget: j.req.Budget, Profile: rf.prof}
	g, err := fault.RunGolden(tg)
	if err != nil {
		return nil, err
	}
	spec := j.req.Fault
	end := vp.RAMBase + uint32(len(prog.Bytes))
	plan := fault.NewPlan(fault.PlanConfig{
		Seed:         spec.Seed,
		GPRTransient: spec.GPRTransient,
		MemPermanent: spec.MemPermanent,
		CodeBitflip:  spec.CodeBitflip,
		GoldenInsts:  g.Insts,
		CodeStart:    vp.RAMBase, CodeEnd: end,
		DataStart: vp.RAMBase, DataEnd: end,
	})
	sp := rf.tr.Begin("fault.reference", rf.parent, j.id)
	res, err := fault.CampaignOpt(tg, plan, fault.Options{Workers: 1, Golden: g})
	rf.tr.End(sp)
	if err != nil {
		return nil, err
	}
	d := make([]string, len(res.Details))
	for i, o := range res.Details {
		d[i] = o.String()
	}
	rf.fault[j.req.Source] = d
	return d, nil
}

// bound is the static WCET bound flow.Analyze gives the job's kernel.
func (rf *refs) bound(j *job) (uint64, error) {
	if b, ok := rf.wcet[j.req.Source]; ok {
		return b, nil
	}
	sp := rf.tr.Begin("flow.analyze", rf.parent, j.id)
	t0 := time.Now()
	a, err := flow.Analyze(j.req.Source, rf.prof, j.req.Bounds)
	rf.analyze = append(rf.analyze, ms(time.Since(t0)))
	rf.tr.End(sp)
	if err != nil {
		return 0, err
	}
	rf.wcet[j.req.Source] = a.Annotated.WCET
	return a.Annotated.WCET, nil
}

// verify checks a finished job's result against its reference.
func verify(j *job, rf *refs) error {
	if j.err != nil {
		return j.err
	}
	switch j.kind {
	case "run":
		var res struct {
			Reason string `json:"reason"`
			Code   uint32 `json:"code"`
		}
		if err := json.Unmarshal(j.result, &res); err != nil {
			return err
		}
		if res.Reason != "exit" || res.Code != j.k.Expect {
			return fmt.Errorf("run job %s: %s 0x%08x, Go reference exit 0x%08x", j.id, res.Reason, res.Code, j.k.Expect)
		}
	case "fault":
		var res struct {
			Details []string `json:"details"`
			Errors  string   `json:"errors"`
		}
		if err := json.Unmarshal(j.result, &res); err != nil {
			return err
		}
		want, err := rf.faultDetails(j)
		if err != nil {
			return fmt.Errorf("fault reference: %w", err)
		}
		if res.Errors != "" || !slices.Equal(res.Details, want) {
			return fmt.Errorf("fault job %s: outcomes differ from the in-process campaign (%s)", j.id, res.Errors)
		}
	case "wcet", "qta":
		var res struct {
			WCET       uint64 `json:"wcet"`
			StaticWCET uint64 `json:"static_wcet"`
			Sound      bool   `json:"sound"`
			StopReason string `json:"stop_reason"`
		}
		if err := json.Unmarshal(j.result, &res); err != nil {
			return err
		}
		want, err := rf.bound(j)
		if err != nil {
			return fmt.Errorf("wcet reference: %w", err)
		}
		got := res.WCET
		if j.kind == "qta" {
			got = res.StaticWCET
			if !res.Sound || res.StopReason != "exit" {
				return fmt.Errorf("qta job %s: sound=%v stop=%s", j.id, res.Sound, res.StopReason)
			}
		}
		if got != want {
			return fmt.Errorf("%s job %s: bound %d, flow.Analyze %d", j.kind, j.id, got, want)
		}
	default:
		return fmt.Errorf("unknown job kind %q", j.kind)
	}
	return nil
}

// verifyAll checks every job and accounts it as one operation.
func verifyAll(r *bench.Run, jobs []*job) *refs {
	rf := newRefs(r.Seed)
	for _, j := range jobs {
		r.Op(verify(j, rf))
	}
	return rf
}

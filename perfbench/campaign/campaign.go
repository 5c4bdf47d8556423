// Package campaign is the fault-campaign phase of the benchmark:
// fault.CampaignOpt with one worker per CPU over short seeded kernels
// (a few thousand golden instructions), on the threaded and the
// superblock engine, plus an ISR-targeted campaign (fault.NewISRPlan)
// with a latency budget on the DMA interrupt demonstrator.
//
// The fault mix is register transients, memory permanents and code bit
// flips, and the hang budget is four times the golden instruction count:
// with a loose budget the hung mutants would run most of all guest
// instructions and mutants/s would only re-measure MIPS. Each mutant's
// cost is therefore dominated by restore, injection, retranslation after
// code flips or pool adoption, and classification — the vp and fault
// layers, the translation pool and the PLIC/DMA interrupt path. Steady
// state op execution and the service play almost no part.
package campaign

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/timing"
	"repro/internal/vp"
	"repro/internal/workloads"

	"repro/perfbench/bench"
	"repro/perfbench/kernels"
)

// hangFactor sets each campaign's instruction budget as a multiple of
// its golden run's.
const hangFactor = 4

// isrWorkload is the interrupt demonstrator of the ISR campaign, and
// isrLatencyBudget its interrupt-latency budget in cycles: above the
// static IRT bound of its fault-free run (2515 cycles on edge-small), so
// only faults that perturb timing can violate it.
const (
	isrWorkload      = "dma_stream"
	isrLatencyBudget = 3000
)

// config is one measured campaign.
type config struct {
	name   string
	tg     *fault.Target
	golden *fault.Golden
	pool   *emu.TBPool
	plan   fault.Plan
	ref    []fault.Outcome // outcomes of the first run
}

// Fixture holds the prepared campaigns.
type Fixture struct {
	workers int
	configs []*config

	samples [][]bench.Sample // per configuration
	warm    bool             // the warm-up round is done
}

// Setup generates the kernel and the plans and prepares each campaign's
// golden run and translation pool; a first run of each campaign fixes
// the outcomes every later run must reproduce.
func Setup(r *bench.Run) (*Fixture, error) {
	f := &Fixture{workers: runtime.NumCPU()}
	mutants := 1200
	if r.Quick {
		mutants = 120
	}
	k := kernels.DSP(r.Seed+1, kernels.Short)
	prog, err := asm.AssembleAt(vp.Prelude+k.Source, vp.RAMBase)
	if err != nil {
		return nil, fmt.Errorf("assemble %s: %w", k.Name, err)
	}
	end := vp.RAMBase + uint32(len(prog.Bytes))
	for _, e := range []emu.Engine{emu.EngineThreaded, emu.EngineSuperblock} {
		c := &config{name: e.String(), tg: &fault.Target{
			Program: prog, Budget: k.Budget, Profile: timing.EdgeSmall(), Engine: e,
		}}
		if err := c.prepare(); err != nil {
			return nil, err
		}
		if c.golden.Stop.Code != k.Expect {
			return nil, fmt.Errorf("campaign golden checksum 0x%08x, Go reference 0x%08x", c.golden.Stop.Code, k.Expect)
		}
		c.plan = fault.NewPlan(fault.PlanConfig{
			Seed:         r.Seed,
			GPRTransient: mutants / 2,
			MemPermanent: mutants / 4,
			CodeBitflip:  mutants - mutants/2 - mutants/4,
			GoldenInsts:  c.golden.Insts,
			CodeStart:    vp.RAMBase, CodeEnd: end,
			DataStart: vp.RAMBase, DataEnd: end,
		})
		f.configs = append(f.configs, c)
	}

	w, ok := workloads.ByName(isrWorkload)
	if !ok {
		return nil, fmt.Errorf("interrupt workload %s missing", isrWorkload)
	}
	iprog, err := asm.AssembleAt(vp.Prelude+w.Source, vp.RAMBase)
	if err != nil {
		return nil, err
	}
	isr := &config{name: "isr", tg: &fault.Target{
		Program: iprog, Budget: w.Budget, Profile: timing.EdgeSmall(),
		Sensor: w.Sensor, Stream: w.Stream, UARTIn: w.UARTIn,
		LatencyBudget: isrLatencyBudget,
	}}
	if err := isr.prepare(); err != nil {
		return nil, err
	}
	if isr.golden.Stop.Code != w.Expect {
		return nil, fmt.Errorf("%s golden exit 0x%08x, want 0x%08x", w.Name, isr.golden.Stop.Code, w.Expect)
	}
	isr.plan, err = fault.NewISRPlan(iprog, w.Handler, fault.ISRPlanConfig{
		Seed:         r.Seed,
		GPRTransient: mutants / 2,
		MemPermanent: mutants / 4,
		CodeBitflip:  mutants - mutants/2 - mutants/4,
		GoldenInsts:  isr.golden.Insts,
		StackTop:     isr.tg.StackTop(),
	})
	if err != nil {
		return nil, err
	}
	f.configs = append(f.configs, isr)

	for _, c := range f.configs {
		res, err := f.campaign(c, nil)
		if err != nil {
			return nil, fmt.Errorf("%s campaign: %w", c.name, err)
		}
		c.ref = res.Details
	}
	if a, b := f.configs[0].ref, f.configs[1].ref; !slices.Equal(a, b) {
		return nil, fmt.Errorf("threaded and superblock campaigns classify differently")
	}
	return f, nil
}

// prepare runs the golden reference at the kernel's own budget, then
// sets the hang budget from its instruction count and prepares the
// campaign's golden run and pool under that budget.
func (c *config) prepare() error {
	g, err := fault.RunGolden(c.tg)
	if err != nil {
		return fmt.Errorf("%s golden: %w", c.name, err)
	}
	if g.Stop.Reason != emu.StopExit {
		return fmt.Errorf("%s golden stopped with %v", c.name, g.Stop)
	}
	c.tg.Budget = hangFactor * g.Insts
	c.golden, c.pool, err = fault.Prepare(c.tg)
	if err != nil {
		return fmt.Errorf("%s prepare: %w", c.name, err)
	}
	return nil
}

// campaign runs the whole plan once on the prepared golden run and pool
// and checks it.
func (f *Fixture) campaign(c *config, reg *obs.Registry) (*fault.Results, error) {
	res, err := fault.CampaignOpt(c.tg, c.plan, fault.Options{
		Workers: f.workers, Golden: c.golden, Pool: c.pool, Metrics: reg,
	})
	return res, c.check(res, err)
}

// check fails a campaign with an error or an errored mutant and, after
// the first run, one whose outcomes differ from the first run's.
func (c *config) check(res *fault.Results, err error) error {
	if err != nil {
		return err
	}
	if n := res.Errored(); n > 0 {
		return fmt.Errorf("%d mutants errored", n)
	}
	if c.ref != nil && !slices.Equal(res.Details, c.ref) {
		return fmt.Errorf("%s campaign outcomes differ from its first run", c.name)
	}
	return nil
}

// Round runs every campaign once, taking one normalised mutants/s
// sample of each. The first round is warm-up.
func (f *Fixture) Round(r *bench.Run) {
	if f.samples == nil {
		f.samples = make([][]bench.Sample, len(f.configs))
	} else {
		f.warm = true
	}
	for i, c := range f.configs {
		s, err := r.Ref.Measure(f.workers, func() (float64, error) {
			res, err := f.campaign(c, nil)
			if res == nil {
				return 0, err
			}
			return float64(res.Total), err
		})
		r.Op(err)
		if err == nil && f.warm {
			f.samples[i] = append(f.samples[i], s)
		}
	}
}

// Report sets each campaign's median mutants/s.
func (f *Fixture) Report(r *bench.Run) {
	for i, c := range f.configs {
		r.SetRate("mutants_per_s_"+c.name, "1/s", f.samples[i],
			fmt.Sprintf(" of %d mutants on %d workers", len(c.plan.Faults), f.workers))
	}
}

// Close releases nothing: the fixture holds only memory.
func (f *Fixture) Close() error { return nil }

// nominalRound is how long one full-size round takes on a 2-CPU x86-64
// cloud host.
const nominalRound = 210 * time.Millisecond

// NominalRound returns the length of one full-size round on the
// reference host.
func (f *Fixture) NominalRound() time.Duration { return nominalRound }

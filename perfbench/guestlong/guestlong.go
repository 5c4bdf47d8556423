// Package guestlong is the long-guest phase of the benchmark: single
// threaded guest runs of several million instructions each, so
// translation and restore are amortised to almost nothing and the time
// goes to the emulator's op execution, its block transitions and the
// RAM fast path of the memory layer.
//
// It runs three seeded kernels: the unrolled DSP kernel (long blocks,
// loads and mul) and the branchy kernel (short data-dependent blocks
// behind indirect jumps, more distinct blocks than the jump cache holds),
// each on the threaded and the superblock engine, and the DSP kernel
// again under the QTA co-simulation with its instrumentation hooks on.
// It is chosen because it isolates emu and mem from restore, the
// translation pool and the service, which the other phases exercise.
package guestlong

import (
	"context"
	"fmt"
	"time"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/flow"
	"repro/internal/qta"
	"repro/internal/timing"
	"repro/internal/vp"
	"repro/internal/wcet"

	"repro/perfbench/bench"
	"repro/perfbench/kernels"
)

// guest is one assembled kernel with its fault-free instruction count.
type guest struct {
	kind  string // "dsp" or "branchy"
	k     kernels.Kernel
	prog  *asm.Program
	insts uint64
}

// config is one measured engine-and-kernel pairing on a warm platform.
type config struct {
	name   string
	engine emu.Engine
	g      *guest
	p      *vp.Platform
	base   *vp.Snapshot
}

// Fixture holds the warm platforms of the phase.
type Fixture struct {
	prof    *timing.Profile
	dsp     *guest
	an      *wcet.Annotated // the DSP kernel's annotated CFG for QTA
	configs []*config

	samples [][]bench.Sample // per configuration, then QTA
	warm    bool             // the warm-up round is done
}

// Setup generates and assembles the kernels, builds one warm platform
// per engine and kernel (its first run compiles every block and is
// checked against the Go reference), and runs the DSP kernel's static
// analysis for the QTA co-simulation.
func Setup(r *bench.Run) (*Fixture, error) {
	dspShape, brShape := kernels.Long, kernels.Wide
	if r.Quick {
		dspShape.Passes = 8
		brShape.Steps = 20_000
	}
	f := &Fixture{prof: timing.EdgeSmall()}
	var err error
	if f.dsp, err = assemble("dsp", kernels.DSP(r.Seed, dspShape)); err != nil {
		return nil, err
	}
	branchy, err := assemble("branchy", kernels.Branchy(r.Seed, brShape))
	if err != nil {
		return nil, err
	}
	for _, g := range []*guest{f.dsp, branchy} {
		for _, e := range []emu.Engine{emu.EngineThreaded, emu.EngineSuperblock} {
			c := &config{name: fmt.Sprintf("%s_%s", e, g.kind), engine: e, g: g}
			c.p, c.base, err = f.platform(g, e)
			if err != nil {
				return nil, err
			}
			insts, err := runChecked(c.p, g)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.name, err)
			}
			if g.insts != 0 && insts != g.insts {
				return nil, fmt.Errorf("%s retired %d instructions, the other engine %d", c.name, insts, g.insts)
			}
			g.insts = insts
			f.configs = append(f.configs, c)
		}
	}
	a, err := flow.Analyze(f.dsp.k.Source, f.prof, f.dsp.k.Bounds)
	if err != nil {
		return nil, fmt.Errorf("dsp analysis: %w", err)
	}
	f.an = a.Annotated
	return f, nil
}

func assemble(kind string, k kernels.Kernel) (*guest, error) {
	prog, err := asm.AssembleAt(vp.Prelude+k.Source, vp.RAMBase)
	if err != nil {
		return nil, fmt.Errorf("assemble %s: %w", k.Name, err)
	}
	return &guest{kind: kind, k: k, prog: prog}, nil
}

// platform builds a platform with the guest loaded and its post-load
// snapshot.
func (f *Fixture) platform(g *guest, e emu.Engine) (*vp.Platform, *vp.Snapshot, error) {
	p, err := vp.New(vp.Config{Profile: f.prof})
	if err != nil {
		return nil, nil, err
	}
	p.Machine.Engine = e
	if err := p.LoadProgram(g.prog); err != nil {
		return nil, nil, err
	}
	return p, p.Snapshot(), nil
}

// runChecked runs the loaded guest to its exit and checks the checksum.
func runChecked(p *vp.Platform, g *guest) (uint64, error) {
	before := p.Machine.Hart.Instret
	stop := p.Run(g.k.Budget)
	insts := p.Machine.Hart.Instret - before
	if stop.Reason != emu.StopExit {
		return insts, fmt.Errorf("%s stopped with %v", g.k.Name, stop)
	}
	if stop.Code != g.k.Expect {
		return insts, fmt.Errorf("%s checksum 0x%08x, Go reference 0x%08x", g.k.Name, stop.Code, g.k.Expect)
	}
	return insts, nil
}

// cosim runs the DSP kernel under QTA on a fresh platform and checks
// the run and the soundness of the bound.
func (f *Fixture) cosim(p *vp.Platform) (uint64, error) {
	q, stop, err := qta.CoSim(context.Background(), f.an, p, f.dsp.k.Budget)
	if err != nil {
		return 0, err
	}
	insts := p.Machine.Hart.Instret
	if stop.Reason != emu.StopExit || stop.Code != f.dsp.k.Expect {
		return insts, fmt.Errorf("qta run stopped with %v, want exit 0x%08x", stop, f.dsp.k.Expect)
	}
	if insts != f.dsp.insts {
		return insts, fmt.Errorf("qta run retired %d instructions, plain runs %d", insts, f.dsp.insts)
	}
	if res := q.NewResult(f.dsp.k.Name, p.Machine.Hart.Cycle, insts); !res.Sound() {
		return insts, fmt.Errorf("qta result unsound: %v", res)
	}
	return insts, nil
}

// sample takes one normalised MIPS sample of configuration i (the QTA
// co-simulation is index len(f.configs)).
func (f *Fixture) sample(r *bench.Run, i int) (bench.Sample, error) {
	if i == len(f.configs) {
		p, _, err := f.platform(f.dsp, emu.EngineThreaded)
		if err != nil {
			return bench.Sample{}, err
		}
		return r.Ref.Measure(1, func() (float64, error) {
			n, err := f.cosim(p)
			return float64(n) / 1e6, err
		})
	}
	c := f.configs[i]
	c.p.RestoreReuse(c.base, c.g.prog)
	return r.Ref.Measure(1, func() (float64, error) {
		n, err := runChecked(c.p, c.g)
		if err == nil && n != c.g.insts {
			err = fmt.Errorf("%s retired %d instructions, first run %d", c.name, n, c.g.insts)
		}
		return float64(n) / 1e6, err
	})
}

// Round takes one normalised MIPS sample of every configuration, so a
// slow spell of the host hits all of them. The first round is warm-up.
func (f *Fixture) Round(r *bench.Run) {
	if f.samples == nil {
		f.samples = make([][]bench.Sample, len(f.configs)+1)
	} else {
		f.warm = true
	}
	for i := range f.samples {
		s, err := f.sample(r, i)
		r.Op(err)
		if err == nil && f.warm {
			f.samples[i] = append(f.samples[i], s)
		}
	}
}

// Report sets each configuration's median MIPS.
func (f *Fixture) Report(r *bench.Run) {
	for i, c := range f.configs {
		r.SetRate("mips_"+c.name, "MIPS", f.samples[i], "")
	}
	r.SetRate("mips_qta", "MIPS", f.samples[len(f.configs)], "")
}

// translatePrefix is the instruction count whose cold and warm runs are
// compared for the translation cost: long enough to reach nearly every
// block of both kernels, short enough that run-to-run noise stays small
// against the translation time.
const translatePrefix = 200_000

// Trace records the per-layer view of the phase: per configuration, a
// cold and a warm run of the same prefix for the translation cost, and
// warm full runs with their engine and bus counters; then the QTA
// co-simulation against the plain threaded run of the same kernel.
func (f *Fixture) Trace(r *bench.Run) error {
	tr := r.Trace
	root := tr.Begin("bench.guest_long", 0, "")
	defer tr.End(root)
	const reps = 3
	var threadedDSP time.Duration
	for _, c := range f.configs {
		var cold, warmPrefix, warm []float64
		var tbs, prefixTBs uint64
		var st, full emu.EngineStats
		var bus uint64
		for i := 0; i < reps; i++ {
			sp := tr.Begin("vp.build", root, c.name)
			p, base, err := f.platform(c.g, c.engine)
			tr.End(sp)
			if err != nil {
				return err
			}
			// Translation cost: the same prefix run cold, then warm.
			sp = tr.Begin("emu.run_cold", root, c.name)
			t0 := time.Now()
			p.Run(translatePrefix)
			cold = append(cold, float64(time.Since(t0)))
			tr.End(sp)
			prefixTBs = p.Machine.Stats().TBsCompiled
			sp = tr.Begin("emu.run", root, c.name)
			_, err = runChecked(p, c.g)
			tr.End(sp)
			r.Op(err)
			tbs = p.Machine.Stats().TBsCompiled

			sp = tr.Begin("vp.restore", root, c.name)
			p.RestoreReuse(base, c.g.prog)
			tr.End(sp)
			sp = tr.Begin("emu.run", root, c.name)
			t0 = time.Now()
			p.Run(translatePrefix)
			warmPrefix = append(warmPrefix, float64(time.Since(t0)))
			tr.End(sp)
			sp = tr.Begin("vp.restore", root, c.name)
			p.RestoreReuse(base, c.g.prog)
			tr.End(sp)
			before, busBefore := p.Machine.Stats(), p.Machine.Bus.Stats()
			sp = tr.Begin("emu.run", root, c.name)
			t0 = time.Now()
			_, err = runChecked(p, c.g)
			warm = append(warm, float64(time.Since(t0)))
			tr.End(sp)
			r.Op(err)
			full = p.Machine.Stats()
			st = statsDelta(full, before)
			b := p.Machine.Bus.Stats()
			bus = b.Loads + b.Stores + b.Fetches - busBefore.Loads - busBefore.Stores - busBefore.Fetches
		}
		insts := float64(c.g.insts)
		w := bench.Median(warm)
		if c.name == "threaded_dsp" {
			threadedDSP = time.Duration(w)
		}
		dispatches := st.ChainFollows + st.JumpCacheHits + st.JumpCacheMisses + st.TraceRuns + st.TraceSideExits
		r.Set("emu.ns_per_inst."+c.name, "ns", w/insts)
		r.Set("emu.insts_per_dispatch."+c.name, "count", insts/float64(max(dispatches, 1)))
		r.Set("emu.jump_cache_hit_rate."+c.name, "ratio", st.JumpCacheHitRate())
		r.Set("emu.chain_follows."+c.name, "count", float64(st.ChainFollows))
		if c.engine == emu.EngineSuperblock {
			r.Set("emu.trace_side_exit_rate."+c.name, "ratio", st.TraceSideExitRate())
			r.Set("emu.avg_trace_blocks."+c.name, "count", full.AvgTraceBlocks())
		}
		r.Set("emu.translate_us_per_tb."+c.name, "us", (bench.Median(cold)-bench.Median(warmPrefix))/1e3/float64(max(prefixTBs, 1)))
		r.Set("emu.tbs_compiled."+c.name, "count", float64(tbs))
		r.Set("mem.bus_accesses_per_kinst."+c.name, "count", float64(bus)/insts*1e3)
		r.Count("emu.tbs_compiled."+c.name, tbs)
		r.Count("emu.insts."+c.name, c.g.insts)
	}

	sp := tr.Begin("flow.analyze", root, "qta")
	_, err := flow.Analyze(f.dsp.k.Source, f.prof, f.dsp.k.Bounds)
	tr.End(sp)
	r.Op(err)
	var qtaRuns []float64
	for i := 0; i < reps; i++ {
		sp := tr.Begin("vp.build", root, "qta")
		p, _, err := f.platform(f.dsp, emu.EngineThreaded)
		tr.End(sp)
		if err != nil {
			return err
		}
		sp = tr.Begin("qta.cosim", root, "qta")
		t0 := time.Now()
		_, err = f.cosim(p)
		qtaRuns = append(qtaRuns, float64(time.Since(t0)))
		tr.End(sp)
		r.Op(err)
	}
	r.Set("qta.overhead_x", "x", bench.Median(qtaRuns)/float64(threadedDSP))
	return nil
}

// statsDelta is the engine counters accumulated between two snapshots.
func statsDelta(after, before emu.EngineStats) emu.EngineStats {
	return emu.EngineStats{
		JumpCacheHits:   after.JumpCacheHits - before.JumpCacheHits,
		JumpCacheMisses: after.JumpCacheMisses - before.JumpCacheMisses,
		ChainFollows:    after.ChainFollows - before.ChainFollows,
		TraceRuns:       after.TraceRuns - before.TraceRuns,
		TraceSideExits:  after.TraceSideExits - before.TraceSideExits,
	}
}

// Close releases nothing: the fixture holds only memory.
func (f *Fixture) Close() error { return nil }

// nominalRound is how long one full-size round takes on a 2-CPU x86-64
// cloud host.
const nominalRound = 700 * time.Millisecond

// NominalRound returns the length of one full-size round on the
// reference host.
func (f *Fixture) NominalRound() time.Duration { return nominalRound }

package campaign

import (
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/vp"

	"repro/perfbench/bench"
)

// probeMutants is how many leading plan entries are run one by one to
// count instructions per mutant: a one-mutant campaign's worker retires
// exactly that mutant's instructions, which a shared worker's counters
// cannot attribute.
const probeMutants = 32

// campaignRAM mirrors the campaign runner's platform size for programs
// this small (1 MiB), so vp layer times match what its workers pay.
const campaignRAM = 1 << 20

// vpCosts is what one platform costs a campaign worker, measured on the
// campaign's own program.
type vpCosts struct {
	buildUS, snapshotUS, restoreUS float64
	restoreBytes, restorePages     uint64
	nsPerInst, translateUSPerTB    float64
	tbs                            uint64
}

// measureVP builds fresh platforms, runs the golden program cold, rewinds
// with RestoreReuse and reruns it warm, three times, and returns the
// medians. Restore bytes and pages are those of rewinding one fault-free
// run, which repeat exactly.
func measureVP(r *bench.Run, c *config, parent int) (vpCosts, error) {
	tr := r.Trace
	var build, snap, restore, cold, warm []float64
	var out vpCosts
	for i := 0; i < 3; i++ {
		sp := tr.Begin("vp.build", parent, c.name)
		t0 := time.Now()
		p, err := vp.New(vp.Config{
			Profile: c.tg.Profile, Sensor: c.tg.Sensor, Stream: c.tg.Stream,
			UARTIn: c.tg.UARTIn, RAMSize: campaignRAM,
		})
		if err != nil {
			return out, err
		}
		p.Machine.Engine = c.tg.Engine
		if err := p.LoadProgram(c.tg.Program); err != nil {
			return out, err
		}
		build = append(build, since(t0))
		tr.End(sp)

		sp = tr.Begin("vp.snapshot", parent, c.name)
		t0 = time.Now()
		base := p.Snapshot()
		snap = append(snap, since(t0))
		tr.End(sp)

		sp = tr.Begin("emu.run_cold", parent, c.name)
		t0 = time.Now()
		stop := p.Run(c.tg.Budget)
		cold = append(cold, since(t0))
		tr.End(sp)
		if stop != c.golden.Stop {
			return out, fmt.Errorf("%s rerun stopped with %v, golden %v", c.name, stop, c.golden.Stop)
		}
		out.tbs = p.Machine.Stats().TBsCompiled

		before := p.RestoreStats()
		sp = tr.Begin("vp.restore", parent, c.name)
		t0 = time.Now()
		p.RestoreReuse(base, c.tg.Program)
		restore = append(restore, since(t0))
		tr.End(sp)
		after := p.RestoreStats()
		out.restoreBytes = after.RestoreBytes - before.RestoreBytes
		out.restorePages = after.RestorePages - before.RestorePages

		sp = tr.Begin("emu.run", parent, c.name)
		t0 = time.Now()
		p.Run(c.tg.Budget)
		warm = append(warm, since(t0))
		tr.End(sp)
	}
	out.buildUS = bench.Median(build) / 1e3
	out.snapshotUS = bench.Median(snap) / 1e3
	out.restoreUS = bench.Median(restore) / 1e3
	out.nsPerInst = bench.Median(warm) / float64(c.golden.Insts)
	out.translateUSPerTB = (bench.Median(cold) - bench.Median(warm)) / 1e3 / float64(max(out.tbs, 1))
	return out, nil
}

func since(t0 time.Time) float64 { return float64(time.Since(t0)) }

// Trace records the per-layer view of every campaign: preparation, a
// campaign with metrics, one-by-one instruction counts, the platform
// costs of its program, and whether those parts add up to the campaign's
// wall time. It also measures what the metrics registry costs a
// campaign.
func (f *Fixture) Trace(r *bench.Run) error {
	tr := r.Trace
	root := tr.Begin("bench.campaign", 0, "")
	defer tr.End(root)
	for _, c := range f.configs {
		vc, err := measureVP(r, c, root)
		if err != nil {
			return err
		}
		if c.name == "threaded" {
			r.Set("vp.build_us", "us", vc.buildUS)
			r.Set("vp.snapshot_us", "us", vc.snapshotUS)
			r.Set("vp.restore_us", "us", vc.restoreUS)
			r.Set("vp.restore_bytes", "B", float64(vc.restoreBytes))
			r.Set("vp.restore_pages", "count", float64(vc.restorePages))
			r.Set("emu.translate_us_per_tb.campaign", "us", vc.translateUSPerTB)
			r.Set("emu.tbs_compiled.campaign", "count", float64(vc.tbs))
			r.Count("vp.restore_bytes", vc.restoreBytes)
			r.Count("emu.tbs_compiled.campaign", vc.tbs)
		}

		var prep []float64
		for i := 0; i < 3; i++ {
			tg := *c.tg
			sp := tr.Begin("fault.prepare", root, c.name)
			t0 := time.Now()
			_, _, err := fault.Prepare(&tg)
			prep = append(prep, since(t0))
			tr.End(sp)
			r.Op(err)
		}
		prepareMS := bench.Median(prep) / 1e6

		reg := obs.NewRegistry()
		sp := tr.Begin("fault.campaign", root, c.name)
		t0 := time.Now()
		res, err := f.campaign(c, reg)
		wall := time.Since(t0)
		tr.End(sp)
		r.Op(err)
		if res == nil {
			return err
		}
		total := float64(res.Total)
		tbsPerMutant := float64(reg.Counter(vp.MetricTBsCompiled, "").Value()) / total
		r.Set("fault.prepare_ms."+c.name, "ms", prepareMS)
		r.Set("fault.us_per_mutant."+c.name, "us", float64(wall)/1e3*float64(f.workers)/total)
		r.Set("fault.hung_share."+c.name, "ratio", float64(res.ByOutcome[fault.Hung])/total)
		r.Set("fault.tbs_compiled_per_mutant."+c.name, "count", tbsPerMutant)
		r.Set("fault.pool_hits."+c.name, "count", float64(reg.Counter(vp.MetricPoolHits, "").Value()))
		r.Set("fault.overlay_compiles."+c.name, "count", float64(reg.Counter(vp.MetricOverlayCompiles, "").Value()))
		for o, n := range res.ByOutcome {
			r.Count(fmt.Sprintf("fault.outcomes.%s.%s", c.name, o), uint64(n))
		}

		var insts uint64
		n := min(probeMutants, len(c.plan.Faults))
		for i := 0; i < n; i++ {
			preg := obs.NewRegistry()
			sp := tr.Begin("fault.mutant", root, c.name)
			_, err := fault.CampaignOpt(c.tg, c.plan.Range(i, i+1), fault.Options{
				Workers: 1, Golden: c.golden, Pool: c.pool, Metrics: preg,
			})
			tr.End(sp)
			r.Op(err)
			insts += preg.Counter(vp.MetricInsts, "").Value()
		}
		instsPerMutant := float64(insts) / float64(n)
		r.Set("fault.insts_per_mutant."+c.name, "count", instsPerMutant)
		r.Count("fault.insts_probe."+c.name, insts)

		// The campaign's parts: preparation, then per mutant its
		// execution at the warm rate, one restore and its
		// retranslations, spread over the workers; the whole: the same
		// campaign preparing its own golden run and pool.
		sp = tr.Begin("fault.campaign", root, c.name+"_self_prepared")
		t0 = time.Now()
		res, err = fault.CampaignOpt(c.tg, c.plan, fault.Options{Workers: f.workers})
		whole := since(t0)
		tr.End(sp)
		r.Op(c.check(res, err))
		perMutantNS := instsPerMutant*vc.nsPerInst + vc.restoreUS*1e3 + tbsPerMutant*vc.translateUSPerTB*1e3
		parts := prepareMS*1e6 + total*perMutantNS/float64(f.workers)
		r.Set("decomp.campaign_parts_over_whole."+c.name, "ratio", parts/whole)
		r.Detailf("campaign %s decomposition: prepare %.2f ms + %d mutants x (%.0f insts x %.2f ns + restore %.2f us + %.3f TBs x %.2f us) / %d workers = %.2f ms against %.2f ms for the self-prepared campaign",
			c.name, prepareMS, int(total), instsPerMutant, vc.nsPerInst, vc.restoreUS, tbsPerMutant,
			vc.translateUSPerTB, f.workers, parts/1e6, whole/1e6)
	}

	// Metrics registry cost: the threaded campaign with and without a
	// registry, interleaved.
	c := f.configs[0]
	var off, on []float64
	for i := 0; i < 5; i++ {
		for _, withReg := range []bool{false, true} {
			var reg *obs.Registry
			if withReg {
				reg = obs.NewRegistry()
			}
			sp := tr.Begin("fault.campaign", root, "obs")
			t0 := time.Now()
			_, err := f.campaign(c, reg)
			d := since(t0)
			tr.End(sp)
			r.Op(err)
			if withReg {
				on = append(on, d)
			} else {
				off = append(off, d)
			}
		}
	}
	r.Set("obs.metrics_overhead_pct", "%", (bench.Median(on)/bench.Median(off)-1)*100)
	return nil
}

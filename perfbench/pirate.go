package main

import (
	"fmt"
	"time"

	"cachepirate/internal/analysis"
	"cachepirate/internal/core"
	"cachepirate/internal/counters"
	"cachepirate/internal/machine"
	"cachepirate/internal/workload"
)

const (
	// pirateCurveSeconds is the nominal host time of one default
	// pirate curve on a 2-vCPU x86 host; it sizes the run.
	pirateCurveSeconds = 12.5
	// soloInstrs is how long the Target runs alone in the pirate
	// set-up and in the machine probe.
	soloInstrs = 1_000_000
)

// pirateTarget is the paper's Fig. 1 benchmark.
var pirateTarget = workload.MustByName("omnetpp")

// runPirate measures core.Profile with the default Config. Profile has
// no set-up outside the call, so the set-up timed is the Target's solo
// run on a fresh machine: the baseline the paper compares each Pirate
// measurement with, and the same call the machine.ns_per_instr probe
// times.
func runPirate(r *run) error {
	for r.moreSetup() {
		if err := r.timeSetup(func() error {
			cpi, _, err := soloRun(r.seed)
			r.extra["target_solo_cpi"] = metric{Value: cpi, Unit: "cycles/instr", N: 1}
			return err
		}); err != nil {
			return err
		}
	}

	cfg := core.Config{Seed: r.seed, Workers: r.workers}
	n := r.reps(pirateCurveSeconds)
	var simInstrs float64
	r.allocMB = allocated(func() {
		r.wall = hostSeconds(func() {
			for i := 0; i < n; i++ {
				var c *analysis.Curve
				var rep *core.Report
				var err error
				secs := hostSeconds(func() { c, rep, err = core.Profile(cfg, pirateTarget.New) })
				if !r.check(err == nil, "pirate: Profile: %v", err) {
					continue
				}
				r.curves = append(r.curves, secs)
				r.curve("pirate", c)
				simInstrs += float64(rep.TargetInstructions)
			}
		})
	})
	r.extra["sim_minstr_per_s"] = metric{Value: simInstrs / 1e6 / sum(r.curves), Unit: "Minstr/s", N: len(r.curves)}
	if !r.traced {
		return nil
	}

	// Traced phase: the same curves, split into the §III-C thread test
	// and a Profile with the thread count fixed to its result, with the
	// Target built through a counting factory.
	var threadTest, measureT float64
	var runs int
	var ops uint64
	var rep *core.Report
	var trusted float64
	var tracedWall float64
	for i := 0; i < n; i++ {
		f := &countingFactory{newGen: pirateTarget.New}
		var c *analysis.Curve
		var rp *core.Report
		var threads int
		var ttErr, err error
		var measured float64
		secs := hostSeconds(func() {
			threads, _, ttErr = core.DetermineThreads(cfg, f.New)
			if ttErr == nil {
				mid := time.Now()
				fixed := cfg
				fixed.Threads = threads
				c, rp, err = core.Profile(fixed, f.New)
				measured = time.Since(mid).Seconds()
			}
		})
		if !r.check(ttErr == nil, "pirate: DetermineThreads: %v", ttErr) ||
			!r.check(err == nil, "pirate: Profile with fixed threads: %v", err) {
			continue
		}
		tracedWall += secs
		threadTest += secs - measured
		measureT += measured
		r.curve("pirate", c)
		fr, fo := f.counts()
		runs += fr
		ops += fo
		rep = rp
		trusted = 0
		for _, p := range c.Points {
			if p.Trusted {
				trusted++
			}
		}
		trusted /= float64(len(c.Points))
	}
	if rep == nil {
		return fmt.Errorf("pirate: no traced curve completed")
	}
	r.traceOverhead(tracedWall)
	r.extra["core.thread_test_s"] = metric{Value: threadTest / float64(n), Unit: "s", N: n}
	r.extra["core.measure_s"] = metric{Value: measureT / float64(n), Unit: "s", N: n}
	r.layer("core.thread_test_share", threadTest/tracedWall)
	r.layer("core.measure_share", measureT/tracedWall)
	r.layer("workload.target_ops", float64(ops)/float64(n))
	r.layer("workload.target_runs", float64(runs)/float64(n))
	r.layer("core.sim_target_instr", float64(rep.TargetInstructions))
	r.layer("core.sim_wall_cycles", rep.WallCycles)
	r.layer("core.threads_used", float64(rep.ThreadsUsed))
	r.layer("core.trusted_ratio", trusted)
	return nil
}

// soloRun runs the Target alone on a fresh default machine for
// soloInstrs instructions and returns its CPI and the host time the
// simulation took.
func soloRun(seed uint64) (cpi float64, elapsed time.Duration, err error) {
	m, err := machine.New(machine.NehalemConfig())
	if err != nil {
		return 0, 0, err
	}
	if err := m.Attach(0, pirateTarget.New(seed)); err != nil {
		return 0, 0, err
	}
	pmu := counters.NewPMU(m)
	pmu.Mark(0)
	start := time.Now()
	if err := m.RunInstructions(0, soloInstrs); err != nil {
		return 0, 0, err
	}
	elapsed = time.Since(start)
	return pmu.ReadInterval(0).CPI(), elapsed, nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cachepirate/internal/analysis"
	"cachepirate/internal/cache"
	"cachepirate/internal/machine"
	"cachepirate/internal/runner"
	"cachepirate/internal/simulate"
	"cachepirate/internal/trace"
	"cachepirate/internal/workload"
)

const (
	// sweepRecords makes a microrand trace (uniform over 6 MB) long
	// enough that the 8 MB L3 curve crosses its knee inside the sweep.
	sweepRecords = 600_000
	// sweepIterSeconds is the nominal host time of one fused +
	// analytic + Mattson iteration on a 2-vCPU x86 host.
	sweepIterSeconds = 4.5
	// shardsRate is the SHARDS sampling rate of the analytic-vs-Mattson
	// speed ratio (the SHARDS paper's standard rate).
	shardsRate = 0.001
)

// sweepConfigs are the three reference curves the sweep workload
// streams its trace into.
func sweepConfigs(workers int) (fused, analyticCfg, mattson simulate.Config) {
	base := machine.NehalemConfigNoPrefetch()
	fused = simulate.Config{Machine: base, Engine: simulate.EngineFused, Workers: workers}
	analyticCfg = simulate.Config{Machine: base, Engine: simulate.EngineAnalytic}
	mattson = simulate.Config{Machine: machine.WithL3Policy(base, cache.LRU)}
	return fused, analyticCfg, mattson
}

// runSweep measures the reference path: set-up captures the trace and
// writes it as a v2 file; each iteration streams the file into the
// fused sweep, the analytic curve and the exact Mattson LRU curve.
func runSweep(r *run) error {
	path := filepath.Join(r.tmp, "sweep.v2")
	var tr *trace.Trace
	for r.moreSetup() {
		if err := r.timeSetup(func() error {
			tr = simulate.CaptureTrace(workload.MustByName("microrand").New, r.seed, 0, sweepRecords)
			return writeV2(path, tr)
		}); err != nil {
			return err
		}
	}
	open := func() (trace.BlockSource, error) {
		return trace.OpenFile(path, trace.ReaderOptions{Prefetch: 2})
	}
	fusedCfg, analyticCfg, mattsonCfg := sweepConfigs(r.workers)
	sizes := 16 // the default sweep: one size per L3 way
	passes := 2 // one warm-up replay, one measured
	simInstrs := float64(tr.Instructions()) * float64(passes*sizes)

	n := r.reps(sweepIterSeconds)
	var analyticT, mattsonT []float64
	// timed runs one curve computation, checks it and returns its host
	// seconds (negative when it failed).
	timed := func(kind string, f func() (*analysis.Curve, error)) float64 {
		start := time.Now()
		c, err := f()
		elapsed := time.Since(start).Seconds()
		if !r.check(err == nil, "sweep: %s: %v", kind, err) {
			return -1
		}
		r.check(len(c.Points) == sizes, "sweep: %s curve has %d points, want %d", kind, len(c.Points), sizes)
		r.curve(kind, c)
		return elapsed
	}
	r.allocMB = allocated(func() {
		r.wall = hostSeconds(func() {
			for i := 0; i < n; i++ {
				if t := timed("fused", func() (*analysis.Curve, error) { return simulate.SweepStream(fusedCfg, open) }); t >= 0 {
					r.curves = append(r.curves, t)
				}
				if t := timed("analytic", func() (*analysis.Curve, error) { return simulate.AnalyticCurveStream(analyticCfg, open) }); t >= 0 {
					analyticT = append(analyticT, t)
				}
				if t := timed("mattson", func() (*analysis.Curve, error) { return simulate.MattsonLRUCurveStream(mattsonCfg, open) }); t >= 0 {
					mattsonT = append(mattsonT, t)
				}
			}
		})
	})
	r.extra["analytic_s"] = metric{Value: median(analyticT), Unit: "s", N: len(analyticT)}
	r.extra["mattson_s"] = metric{Value: median(mattsonT), Unit: "s", N: len(mattsonT)}
	r.extra["sim_minstr_per_s"] = metric{Value: simInstrs / 1e6 / median(r.curves), Unit: "Minstr/s", N: len(r.curves)}
	if !r.traced {
		return nil
	}

	// Traced phase: the same iterations through a timing source, with
	// the shard gauges sampled and the fused sweep's mallocs counted.
	var timer sourceTimer
	var tracedFused []float64
	var mallocs uint64
	var inFlight utilSampler
	tracedWall := hostSeconds(func() {
		for i := 0; i < n; i++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			inFlight.start()
			if t := timed("fused", func() (*analysis.Curve, error) { return simulate.SweepStream(fusedCfg, timer.wrap(open)) }); t >= 0 {
				tracedFused = append(tracedFused, t)
			}
			inFlight.stop()
			runtime.ReadMemStats(&m1)
			mallocs += m1.Mallocs - m0.Mallocs
		}
	})
	fusedDecode := time.Duration(timer.busy.Load()).Seconds()
	fusedRecords := float64(timer.records.Load())
	// The analytic and Mattson passes of the traced phase are timed
	// through their own source timer, after the fused figures are read.
	var rest sourceTimer
	tracedWall += hostSeconds(func() {
		for i := 0; i < n; i++ {
			timed("analytic", func() (*analysis.Curve, error) { return simulate.AnalyticCurveStream(analyticCfg, rest.wrap(open)) })
			timed("mattson", func() (*analysis.Curve, error) { return simulate.MattsonLRUCurveStream(mattsonCfg, rest.wrap(open)) })
		}
	})
	r.traceOverhead(tracedWall)
	decode := fusedDecode + time.Duration(rest.busy.Load()).Seconds()
	fusedSelf := sum(tracedFused) - fusedDecode
	r.extra["trace.decode_busy_s"] = metric{Value: decode / float64(n), Unit: "s", N: n}
	r.extra["simulate.fused_self_s"] = metric{Value: fusedSelf / float64(n), Unit: "s", N: n}
	r.layer("trace.decode_busy_share", decode/tracedWall)
	r.layer("simulate.fused_self_share", fusedSelf/tracedWall)
	r.layer("trace.records", fusedRecords/float64(n))
	r.layer("trace.opens", float64(timer.opens.Load())/float64(n))
	r.layer("simulate.replica_records", fusedRecords/float64(n)*float64(sizes))
	r.layer("simulate.allocs_per_krec", float64(mallocs)/(fusedRecords/1000))
	r.layer("runner.shard_blocks_in_flight_mean", inFlight.mean())

	// Same-run reference ratios, each against this run's untraced
	// figures.
	fusedMedian := median(r.curves)
	serialCfg := fusedCfg
	serialCfg.Workers = 1
	if t := timed("fused", func() (*analysis.Curve, error) { return simulate.SweepStream(serialCfg, open) }); t >= 0 {
		r.layer("runner.shard_speedup", t/fusedMedian)
	}
	perSizeCfg := fusedCfg
	perSizeCfg.Engine = simulate.EnginePerSize
	if t := timed("fused", func() (*analysis.Curve, error) { return simulate.SweepStream(perSizeCfg, open) }); t >= 0 {
		r.layer("simulate.persize_over_fused_x", t/fusedMedian)
	}
	sampledCfg := analyticCfg
	sampledCfg.SampleRate = shardsRate
	var sampled []float64
	for i := 0; i < probeReps; i++ {
		if t := timed("analytic_r0.001", func() (*analysis.Curve, error) { return simulate.AnalyticCurveStream(sampledCfg, open) }); t >= 0 {
			sampled = append(sampled, t)
		}
	}
	r.layer("analytic.speedup_vs_mattson_x", median(mattsonT)/median(sampled))
	return nil
}

// writeV2 writes tr to path in the v2 format.
func writeV2(path string, tr *trace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := tr.WriteV2(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// utilSampler polls runner.Util every millisecond while started and
// averages the shard gauge over every sample it took.
type utilSampler struct {
	quit, done chan struct{}
	sum, n     float64
}

func (s *utilSampler) start() {
	s.quit, s.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
				s.sum += float64(runner.Util().ShardBlocksInFlight)
				s.n++
			}
		}
	}()
}

// stop ends sampling and waits for the sampler to exit.
func (s *utilSampler) stop() {
	close(s.quit)
	<-s.done
}

func (s *utilSampler) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / s.n
}

// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload:
//
//	pirate  core.Profile on the synthetic omnetpp Target (the paper's method)
//	sweep   the streamed reference sweep: fused, SHARDS analytic and Mattson curves
//	serve   the curve server under a closed-loop read/cold/upload mix
//
// It prints one line per metric, a "record" line carrying the host
// fingerprint, the seed, every figure with its sample count and every
// curve digest, and last one JSON object with the metrics declared in
// BENCHMARK.json: end-to-end metrics with -trace 0, per-layer metrics
// with -trace 1. See README.md in this directory.
//
// Usage:
//
//	python3 perfbench/run.py --workload pirate --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"cachepirate/internal/analysis"
)

// spec names a reported metric and its unit; the lists below must match
// BENCHMARK.json (TestMetricListsMatchBenchmarkJSON).
type spec struct{ name, unit string }

var endToEnd = []spec{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"curve_s", "s"},
	{"curve_tail_s", "s"},
	{"max_rss_mb", "MB"},
	{"alloc_mb", "MB"},
}

// perLayer metrics are reported by every traced run. A layer the
// workload bypasses reads 0; span times are reported as shares of the
// traced wall time so they stay comparable across hosts.
var perLayer = []spec{
	{"bench.trace_overhead_x", "x"},
	{"core.thread_test_share", "ratio"},
	{"core.measure_share", "ratio"},
	{"core.pirate_warm_ms", "ms"},
	{"machine.ns_per_instr", "ns"},
	{"workload.target_ops", "count"},
	{"workload.target_runs", "count"},
	{"core.sim_target_instr", "count"},
	{"core.sim_wall_cycles", "cycles"},
	{"core.threads_used", "count"},
	{"core.trusted_ratio", "ratio"},
	{"trace.decode_busy_share", "ratio"},
	{"trace.records", "count"},
	{"trace.opens", "count"},
	{"simulate.fused_self_share", "ratio"},
	{"simulate.replica_records", "count"},
	{"simulate.allocs_per_krec", "count"},
	{"simulate.persize_over_fused_x", "x"},
	{"runner.shard_speedup", "x"},
	{"runner.shard_blocks_in_flight_mean", "count"},
	{"analytic.speedup_vs_mattson_x", "x"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.queue_depth_max", "count"},
	{"server.flights_deduped", "count"},
	{"server.rejected", "count"},
	{"server.write_failures", "count"},
	{"server.store_put_ms", "ms"},
}

var workloads = map[string]func(*run) error{
	"pirate": runPirate,
	"sweep":  runSweep,
	"serve":  runServe,
}

// defaultSeed is the seed whose curve digests are pinned below.
const defaultSeed = 1

// pinned holds, per workload, the digest of each curve kind at the
// default seed. Any change to a simulated statistic changes a digest.
var pinned = map[string]map[string]uint64{
	"pirate": {"pirate": 0x7c8884f94c81eb7d},
	"sweep":  {"fused": 0xae9148fc76aeb4bd, "analytic": 0xb248baaa7b7293b1, "mattson": 0xbaf938a9a7a7e541},
	"serve":  {"fused": 0x1a1c89d02a3e4e51, "analytic": 0x2c1709faed6b1681, "mattson": 0xe33c835f9bca0909},
}

// Each workload repeats its set-up at least setupReps times, and more
// (up to setupMaxReps) until setupSeconds of set-up have been timed, so
// a short set-up is still the median of many; setup_s is the median.
const (
	setupReps    = 5
	setupMaxReps = 100
	setupSeconds = 2.0
)

// metric is one reported figure; N is its sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// run is one benchmark invocation: its parameters and what it measured.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	workers  int
	tmp      string

	attempted, failed int
	digests           map[string]uint64

	setup   []float64 // host seconds per set-up
	wall    float64   // host seconds of the untraced measured phase
	allocMB float64   // MiB allocated during the measured phase
	curves  []float64 // host seconds per delivered curve
	extra   map[string]metric
	layers  map[string]metric
}

func main() {
	wl := flag.String("workload", "", "workload to run: pirate, sweep or serve")
	seed := flag.Uint64("seed", defaultSeed, "input seed")
	seconds := flag.Float64("seconds", 20, "nominal length of the measured phase")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	runFn, ok := workloads[*wl]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload pirate|sweep|serve [--seed N] [--seconds S] [--trace 0|1]")
		os.Exit(2)
	}
	tmp, err := os.MkdirTemp("", "perfbench-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := &run{
		workload: *wl,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *traced == 1,
		workers:  runtime.NumCPU(),
		tmp:      tmp,
		digests:  map[string]uint64{},
		extra:    map[string]metric{},
		layers:   map[string]metric{},
	}
	err = runFn(r)
	if err == nil && r.traced {
		err = r.probes()
	}
	if rmErr := os.RemoveAll(tmp); err == nil && rmErr != nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := r.report(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// reps sizes a fixed amount of work to the requested run length from a
// nominal per-repetition cost, so every run of one configuration does
// the same work whatever the host's speed.
func (r *run) reps(nominalSeconds float64) int {
	n := int(math.Round(r.seconds / nominalSeconds))
	if n < 1 {
		n = 1
	}
	return n
}

// check counts one attempted operation or output check, and a failure
// when ok is false.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
	}
	return ok
}

// curve checks a delivered curve: every curve of one kind in a run,
// traced or not, must be bit-identical to the first.
func (r *run) curve(kind string, c *analysis.Curve) {
	r.sameDigest(kind, digest(c))
}

// sameDigest checks a curve digest against the first one of its kind.
func (r *run) sameDigest(kind string, d uint64) {
	prev, seen := r.digests[kind]
	if !seen {
		r.digests[kind] = d
	}
	r.check(!seen || prev == d, "%s curve digest %016x differs from %016x earlier in the run", kind, d, prev)
}

// timeSetup runs f as one set-up repetition and records its host time.
// It collects garbage first, so a repetition is not charged for the
// previous one's.
func (r *run) timeSetup(f func() error) error {
	runtime.GC()
	start := time.Now()
	if err := f(); err != nil {
		return err
	}
	r.setup = append(r.setup, time.Since(start).Seconds())
	return nil
}

// moreSetup reports whether the workload should repeat its set-up.
func (r *run) moreSetup() bool {
	n := len(r.setup)
	return n < setupReps || (n < setupMaxReps && sum(r.setup) < setupSeconds)
}

// allocated runs f and returns the MiB it allocated.
func allocated(f func()) float64 {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
}

// hostSeconds runs f and returns the host seconds it took.
func hostSeconds(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

// layer sets a per-layer metric, taking its unit from perLayer.
func (r *run) layer(name string, v float64) {
	for _, s := range perLayer {
		if s.name == name {
			r.layers[name] = metric{Value: v, Unit: s.unit, N: 1}
			return
		}
	}
	panic("perfbench: undeclared per-layer metric " + name)
}

// traceOverhead records the traced phase's wall time against the
// untraced one.
func (r *run) traceOverhead(tracedWall float64) {
	r.layer("bench.trace_overhead_x", tracedWall/r.wall)
	r.extra["traced_wall_s"] = metric{Value: tracedWall, Unit: "s", N: 1}
}

// checkPinned compares the run's digests with the pinned ones at the
// default seed.
func (r *run) checkPinned() {
	if r.seed != defaultSeed {
		return
	}
	for k, want := range pinned[r.workload] {
		got, ok := r.digests[k]
		r.check(ok && got == want, "%s curve digest %016x at the default seed, pinned %016x", k, got, want)
	}
}

func (r *run) endToEnd() map[string]metric {
	n := len(r.curves)
	tailS, tailP := tail(r.curves)
	q := quartiles(r.curves)
	sq := quartiles(r.setup)
	r.extra["curve_tail_percentile"] = metric{Value: tailP, Unit: "%", N: n}
	r.extra["curve_spread"] = metric{Value: (q[2] - q[0]) / q[1], Unit: "ratio", N: n}
	r.extra["setup_spread"] = metric{Value: (sq[2] - sq[0]) / sq[1], Unit: "ratio", N: len(r.setup)}
	return map[string]metric{
		"setup_s":      {Value: median(r.setup), Unit: "s", N: len(r.setup)},
		"wall_s":       {Value: r.wall, Unit: "s", N: 1},
		"curve_s":      {Value: median(r.curves), Unit: "s", N: n},
		"curve_tail_s": {Value: tailS, Unit: "s", N: n},
		"max_rss_mb":   {Value: maxRSSMB(), Unit: "MB", N: 1},
		"alloc_mb":     {Value: r.allocMB, Unit: "MB", N: 1},
	}
}

// report prints the metric lines, the record line and the result line.
func (r *run) report(w *os.File) error {
	r.checkPinned()
	declared, metrics := endToEnd, r.endToEnd()
	if r.traced {
		declared, metrics = perLayer, r.layers
		for _, s := range perLayer {
			if _, ok := metrics[s.name]; !ok {
				metrics[s.name] = metric{Value: 0, Unit: s.unit}
			}
		}
	}
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.check(false, "metric %s is %v", name, m.Value)
			metrics[name] = metric{Value: 0, Unit: m.Unit, N: m.N}
		}
	}
	// A figure with no samples (every operation behind it failed, which
	// the checks have counted) is NaN, which JSON cannot carry.
	for name, m := range r.extra {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.extra[name] = metric{Value: 0, Unit: m.Unit, N: m.N}
		}
	}
	errRate := float64(r.failed) / float64(max(r.attempted, 1))
	r.extra["error_rate"] = metric{Value: errRate, Unit: "ratio", N: r.attempted}

	bw := bufio.NewWriter(w)
	for _, s := range declared {
		m := metrics[s.name]
		fmt.Fprintf(bw, "%-36s %14.6g %-6s n=%d\n", s.name, m.Value, m.Unit, m.N)
	}
	extras := make([]string, 0, len(r.extra))
	for k := range r.extra {
		extras = append(extras, k)
	}
	sort.Strings(extras)
	for _, k := range extras {
		m := r.extra[k]
		fmt.Fprintf(bw, "  %-34s %14.6g %-6s n=%d\n", k, m.Value, m.Unit, m.N)
	}

	digests := map[string]string{}
	for k, d := range r.digests {
		digests[k] = fmt.Sprintf("%016x", d)
	}
	rec, err := json.Marshal(struct {
		Workload  string            `json:"workload"`
		Seed      uint64            `json:"seed"`
		Seconds   float64           `json:"seconds"`
		Trace     bool              `json:"trace"`
		Host      host              `json:"host"`
		Metrics   map[string]metric `json:"metrics"`
		Extra     map[string]metric `json:"extra"`
		Digests   map[string]string `json:"digests"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
	}{r.workload, r.seed, r.seconds, r.traced, hostFingerprint(), metrics, r.extra, digests, r.attempted, r.failed})
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "record %s\n", rec)

	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]valueUnit{}
	for _, s := range declared {
		out[s.name] = valueUnit{metrics[s.name].Value, s.unit}
	}
	res, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{r.failed == 0, max(r.attempted, 1), r.failed, out})
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n", res)
	return bw.Flush()
}

// host is the fingerprint every record carries, so figures from
// different machines are never compared blind.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
}

func hostFingerprint() host {
	h := host{
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// maxRSSMB is the process's peak resident set in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

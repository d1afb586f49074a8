package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cachepirate/internal/core"
	"cachepirate/internal/machine"
	"cachepirate/internal/server"
	"cachepirate/internal/simulate"
	"cachepirate/internal/workload"
)

// probeReps is how many times each layer probe repeats; it reports the
// median.
const probeReps = 5

// putRecords is the length of the small traces the serve workload
// uploads and the store probe writes.
const putRecords = 5_000

// probes times single layers directly, on every traced run whatever
// the workload, so a change to one layer can be seen from every
// workload's traced figures.
func (r *run) probes() error {
	var warm, instr, put []float64
	for i := 0; i < probeReps; i++ {
		ms, err := pirateWarmProbe()
		if err != nil {
			return err
		}
		warm = append(warm, ms)

		_, elapsed, err := soloRun(r.seed)
		if err != nil {
			return err
		}
		instr = append(instr, float64(elapsed.Nanoseconds())/soloInstrs)

		ms, err = storePutProbe(r.tmp, i, smallTrace(r.seed))
		if err != nil {
			return err
		}
		put = append(put, ms)
	}
	r.layer("core.pirate_warm_ms", median(warm))
	r.layer("machine.ns_per_instr", median(instr))
	r.layer("server.store_put_ms", median(put))
	return nil
}

// pirateWarmProbe times what core.Profile does at each size change: a
// Pirate on a fresh default machine takes all but 512 KB of the L3
// with every pirate thread and warms it with two passes.
func pirateWarmProbe() (float64, error) {
	cfg := machine.NehalemConfig()
	m, err := machine.New(cfg)
	if err != nil {
		return 0, err
	}
	cores := make([]int, 0, cfg.Cores-1)
	for c := 1; c < cfg.Cores; c++ {
		cores = append(cores, c)
	}
	start := time.Now()
	p, err := core.NewPirate(m, cores)
	if err != nil {
		return 0, err
	}
	if err := p.SetWSS(cfg.L3.Size-512<<10, len(cores)); err != nil {
		return 0, err
	}
	if err := p.Warm(2); err != nil {
		return 0, err
	}
	return float64(time.Since(start).Nanoseconds()) / 1e6, nil
}

// storePutProbe times server.Store.Put of body into an empty store, so
// the hash, validation and rename all run.
func storePutProbe(tmp string, i int, body []byte) (float64, error) {
	dir := filepath.Join(tmp, fmt.Sprintf("putprobe-%d", i))
	st, err := server.NewStore(dir)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	info, err := st.Put(bytes.NewReader(body))
	elapsed := time.Since(start)
	if err != nil {
		return 0, err
	}
	if info.Records != putRecords {
		return 0, fmt.Errorf("store probe: stored %d records, want %d", info.Records, putRecords)
	}
	return float64(elapsed.Nanoseconds()) / 1e6, os.RemoveAll(dir)
}

// smallTrace is the v2 encoding of a putRecords-long microrand capture.
func smallTrace(seed uint64) []byte {
	tr := simulate.CaptureTrace(workload.MustByName("microrand").New, seed, 0, putRecords)
	var buf bytes.Buffer
	if err := tr.WriteV2(&buf); err != nil {
		panic(err) // a bytes.Buffer write cannot fail
	}
	return buf.Bytes()
}

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cachepirate/internal/analysis"
	"cachepirate/internal/cache"
	"cachepirate/internal/machine"
	"cachepirate/internal/server"
	"cachepirate/internal/simulate"
	"cachepirate/internal/trace"
	"cachepirate/internal/workload"
)

const (
	// serveClients is the closed-loop client count: curve callers
	// (scripts, CI) each wait for their reply before asking again.
	serveClients = 2
	// serveTraceRecords is the length of the uploaded, warmed trace.
	serveTraceRecords = 50_000
	// coldRecords is the length of each cold request's server-side
	// capture.
	coldRecords = 10_000
	// A client's schedule is a run of sessions, each shaped like one
	// run of cmd/curveload, the repository's own curve-server client
	// (CI runs it for 5 s as its server smoke test): one upload, one
	// cold curve request per engine, then warm reads for sessionSeconds.
	// readsPerSecond is a little under one client's share of the warm
	// rate curveload -clients 2 measured (16.4-16.6k curves/s across
	// both); it only turns the session's length into a fixed read count,
	// so every run of one length does the same work.
	sessionSeconds = 5
	readsPerSecond = 7000
)

const (
	opRead = iota
	opCold
	opUpload
)

var opNames = [...]string{"read", "cold", "upload"}

// serveOp is one scheduled client operation.
type serveOp struct {
	kind int
	key  int    // opRead, opCold: index into serveKeys
	seed uint64 // opCold: seed of the server-side capture
	body int    // opUpload: index into the upload bodies
}

// serveSchedule lays out one client's sessions. Each session's upload
// and cold requests run back to back, in curveload's order, at a seeded
// place among the session's warm reads, so the clients' cold work does
// not line up and every run spreads the same mix evenly.
func serveSchedule(seed uint64, client, sessions int) []serveOp {
	const reads = readsPerSecond * sessionSeconds
	rng := rand.New(rand.NewPCG(seed, uint64(client)))
	ops := make([]serveOp, 0, sessions*(1+len(serveKeys)+reads))
	for s := 0; s < sessions; s++ {
		at := rng.IntN(reads + 1)
		for i := 0; i <= reads; i++ {
			if i == at {
				ops = append(ops, serveOp{kind: opUpload, body: client*sessions + s})
				for k := range serveKeys {
					ops = append(ops, serveOp{kind: opCold, key: k, seed: seed<<24 | uint64(client)<<16 | uint64(s)})
				}
			}
			if i < reads {
				ops = append(ops, serveOp{kind: opRead, key: (s*reads + i) % len(serveKeys)})
			}
		}
	}
	return ops
}

// serveKeys are the warmed curve requests for the uploaded trace, in
// the order of the curve kinds pinned for the workload.
var serveKeys = []struct{ kind, query string }{
	{"fused", "engine=fused"},
	{"analytic", "engine=analytic"},
	{"mattson", "engine=mattson&policy=lru"},
}

// liveServer is an in-process curve server on a loopback listener over
// its own temporary store.
type liveServer struct {
	base   string
	srv    *server.Server
	hs     *http.Server
	dir    string
	served chan error
}

func startServer(dir string) (*liveServer, error) {
	st, err := server.NewStore(dir)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Store: st})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &liveServer{base: "http://" + ln.Addr().String(), srv: srv, hs: &http.Server{Handler: srv}, dir: dir, served: make(chan error, 1)}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop closes the listener and connections, waits for Serve to return,
// drains the job queue and removes the store.
func (s *liveServer) stop() error {
	err := s.hs.Close()
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.srv.Close()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// serveState is one set-up: the server, its warmed keys and the inputs
// the clients send.
type serveState struct {
	ls        *liveServer
	urls      []string // warm-key curve URLs
	first     [][]byte // the first response body per warm key
	uploads   [][]byte
	hashes    []string
	traceData []byte
}

// serveSetup captures the inputs, starts a server, uploads the trace
// and warms the key set. On failure it stops the server it started.
func (r *run) serveSetup(client *http.Client, i, uploads int) (_ *serveState, err error) {
	st := &serveState{traceData: captureV2(r.seed, serveTraceRecords)}
	for j := 0; j < uploads; j++ {
		b := smallTrace(r.seed<<24 | 1<<23 | uint64(j))
		h := sha256.Sum256(b)
		st.uploads = append(st.uploads, b)
		st.hashes = append(st.hashes, hex.EncodeToString(h[:]))
	}
	if st.ls, err = startServer(filepath.Join(r.tmp, fmt.Sprintf("store-%d", i))); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			_ = st.ls.stop() // the set-up error is the one to report
		}
	}()
	status, body, err := do(client, nil, http.MethodPost, st.ls.base+"/v1/traces", st.traceData)
	if err != nil || status != http.StatusCreated {
		return nil, fmt.Errorf("serve: uploading the trace: status %d, %v: %s", status, err, body)
	}
	var info server.TraceInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return nil, fmt.Errorf("serve: upload reply: %w", err)
	}
	for _, k := range serveKeys {
		u := fmt.Sprintf("%s/v1/curves?trace=%s&%s", st.ls.base, info.Hash, k.query)
		status, body, err := do(client, nil, http.MethodGet, u, nil)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("serve: warming %s: status %d, %v: %s", k.kind, status, err, body)
		}
		st.urls = append(st.urls, u)
		st.first = append(st.first, body)
	}
	return st, nil
}

// opResult is one completed client operation.
type opResult struct {
	kind   int
	secs   float64
	status int
	err    string // non-empty when the op or its output check failed
	seed   uint64 // opCold
	digest uint64 // opCold
	key    int    // opCold
}

// exec runs one operation, reading the reply into buf, and checks its
// output.
func (st *serveState) exec(client *http.Client, buf *bytes.Buffer, op serveOp) opResult {
	res := opResult{kind: op.kind, seed: op.seed, key: op.key}
	method, url, payload := http.MethodGet, "", []byte(nil)
	switch op.kind {
	case opRead:
		url = st.urls[op.key]
	case opCold:
		url = fmt.Sprintf("%s/v1/curves?workload=microrand&records=%d&seed=%d&%s", st.ls.base, coldRecords, op.seed, serveKeys[op.key].query)
	case opUpload:
		method, url, payload = http.MethodPost, st.ls.base+"/v1/traces", st.uploads[op.body]
	}
	start := time.Now()
	status, body, err := do(client, buf, method, url, payload)
	res.secs = time.Since(start).Seconds()
	res.status = status
	want := http.StatusOK
	if op.kind == opUpload {
		want = http.StatusCreated
	}
	switch {
	case err != nil:
		res.err = err.Error()
	case status != want:
		res.err = fmt.Sprintf("status %d: %.200s", status, body)
	case op.kind == opRead && !bytes.Equal(body, st.first[op.key]):
		res.err = fmt.Sprintf("warm body for %s differs from its first response", serveKeys[op.key].kind)
	case op.kind == opCold:
		c, err := analysis.ReadCurveJSON(bytes.NewReader(body))
		if err != nil || len(c.Points) != 16 {
			res.err = fmt.Sprintf("cold curve: %v", err)
			break
		}
		res.digest = digest(c)
	case op.kind == opUpload:
		var info server.TraceInfo
		if err := json.Unmarshal(body, &info); err != nil || info.Hash != st.hashes[op.body] || info.Records != putRecords {
			res.err = fmt.Sprintf("upload reply %.200s: %v", body, err)
		}
	}
	return res
}

// play runs every client's schedule at once and returns the results.
func (st *serveState) play(client *http.Client, sched [][]serveOp) []opResult {
	parts := make([][]opResult, len(sched))
	var wg sync.WaitGroup
	for c, ops := range sched {
		wg.Add(1)
		go func(c int, ops []serveOp) {
			defer wg.Done()
			var buf bytes.Buffer
			parts[c] = make([]opResult, 0, len(ops))
			for _, op := range ops {
				parts[c] = append(parts[c], st.exec(client, &buf, op))
			}
		}(c, ops)
	}
	wg.Wait()
	var out []opResult
	for _, part := range parts {
		out = append(out, part...)
	}
	return out
}

// record checks the results and returns the successful ones by kind,
// and how many ops the server refused with 429.
func (r *run) record(results []opResult) (ok [3][]opResult, rejected int) {
	for _, res := range results {
		if res.status == http.StatusTooManyRequests {
			rejected++
		}
		if !r.check(res.err == "", "serve: %s: %s", opNames[res.kind], res.err) {
			continue
		}
		ok[res.kind] = append(ok[res.kind], res)
		if res.kind == opCold {
			r.sameDigest(fmt.Sprintf("cold/%s/%d", serveKeys[res.key].kind, res.seed), res.digest)
		}
	}
	return ok, rejected
}

// seconds returns the host seconds of each result.
func seconds(results []opResult) []float64 {
	s := make([]float64, len(results))
	for i, res := range results {
		s[i] = res.secs
	}
	return s
}

// finishServe reads the server's statistics, stops it and checks the
// warmed curves and the response writes.
func (r *run) finishServe(client *http.Client, st *serveState) (server.Stats, error) {
	stats, err := statsz(client, st.ls.base)
	if serr := st.ls.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return stats, err
	}
	r.check(stats.WriteFailures == 0, "serve: %d response writes failed", stats.WriteFailures)
	r.checkWarm(st)
	return stats, nil
}

// checkWarm pins the warmed curves' digests and checks the served fused
// curve against a direct simulate.SweepStream of the uploaded bytes.
func (r *run) checkWarm(st *serveState) {
	for i, k := range serveKeys {
		c, err := analysis.ReadCurveJSON(bytes.NewReader(st.first[i]))
		if !r.check(err == nil, "serve: decoding warm %s curve: %v", k.kind, err) {
			continue
		}
		r.curve(k.kind, c)
	}
	cfg := simulate.Config{
		Machine: machine.WithL3Policy(machine.NehalemConfigNoPrefetch(), cache.Nehalem),
		Engine:  simulate.EngineFused,
		Workers: r.workers,
	}
	direct, err := simulate.SweepStream(cfg, func() (trace.BlockSource, error) {
		return trace.NewReader(bytes.NewReader(st.traceData), trace.ReaderOptions{})
	})
	if r.check(err == nil, "serve: direct sweep of the uploaded trace: %v", err) {
		r.curve("fused", direct)
	}
}

// runServe measures the curve server under a fixed closed-loop mix of
// warm curve reads, cold-key curve requests and uploads.
func runServe(r *run) error {
	sessions := r.reps(sessionSeconds)
	sched := make([][]serveOp, serveClients)
	for c := range sched {
		sched[c] = serveSchedule(r.seed, c, sessions)
	}
	tr := &http.Transport{MaxIdleConnsPerHost: serveClients + 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	var st *serveState
	for i := 0; r.moreSetup(); i++ {
		if st != nil {
			if err := st.ls.stop(); err != nil {
				return err
			}
		}
		if err := r.timeSetup(func() error {
			var err error
			st, err = r.serveSetup(client, i, serveClients*sessions)
			return err
		}); err != nil {
			return err
		}
	}

	var results []opResult
	r.allocMB = allocated(func() {
		r.wall = hostSeconds(func() { results = st.play(client, sched) })
	})
	ok, _ := r.record(results)
	stats, err := r.finishServe(client, st)
	if err != nil {
		return err
	}
	r.extra["server.cache_hit_ratio"] = metric{Value: stats.CacheHitRate, Unit: "ratio", N: 1}
	readS, coldS, uploadS := seconds(ok[opRead]), seconds(ok[opCold]), seconds(ok[opUpload])
	r.curves = append(append(r.curves, readS...), coldS...)
	r.extra["reads_per_s"] = metric{Value: float64(len(readS)) / r.wall, Unit: "1/s", N: len(readS)}
	r.extra["read_ms_p50"] = metric{Value: median(readS) * 1e3, Unit: "ms", N: len(readS)}
	r.extra["read_ms_p99"] = metric{Value: percentile(readS, 99) * 1e3, Unit: "ms", N: len(readS)}
	r.extra["cold_curve_ms_p50"] = metric{Value: median(coldS) * 1e3, Unit: "ms", N: len(coldS)}
	r.extra["upload_ms_p50"] = metric{Value: median(uploadS) * 1e3, Unit: "ms", N: len(uploadS)}
	if !r.traced {
		return nil
	}

	// Traced phase: a fresh server set up the same way, the same
	// schedule, with /statsz sampled for the queue depth.
	st, err = r.serveSetup(client, len(r.setup), serveClients*sessions)
	if err != nil {
		return err
	}
	var depth statszSampler
	depth.start(client, st.ls.base)
	tracedWall := hostSeconds(func() { results = st.play(client, sched) })
	depth.stop()
	_, rejected := r.record(results)
	stats, err = r.finishServe(client, st)
	if err != nil {
		return err
	}
	r.traceOverhead(tracedWall)
	r.layer("server.cache_hit_ratio", stats.CacheHitRate)
	r.layer("server.queue_depth_max", float64(depth.max))
	r.layer("server.flights_deduped", float64(stats.Deduped))
	r.layer("server.rejected", float64(rejected))
	r.layer("server.write_failures", float64(stats.WriteFailures))
	return nil
}

// captureV2 is the v2 encoding of an n-record microrand capture.
func captureV2(seed uint64, n int) []byte {
	tr := simulate.CaptureTrace(workload.MustByName("microrand").New, seed, 0, n)
	var buf bytes.Buffer
	if err := tr.WriteV2(&buf); err != nil {
		panic(err) // a bytes.Buffer write cannot fail
	}
	return buf.Bytes()
}

// do issues one request and reads the whole reply, into buf when it is
// not nil (the reply is then valid until buf's next use), so the clients
// allocate little of what the measured phase counts.
func do(client *http.Client, buf *bytes.Buffer, method, url string, payload []byte) (int, []byte, error) {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	var b []byte
	if buf == nil {
		b, err = io.ReadAll(resp.Body)
	} else {
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		b = buf.Bytes()
	}
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, b, err
}

func statsz(client *http.Client, base string) (server.Stats, error) {
	var s server.Stats
	status, body, err := do(client, nil, http.MethodGet, base+"/statsz", nil)
	if err != nil {
		return s, err
	}
	if status != http.StatusOK {
		return s, fmt.Errorf("statsz: status %d", status)
	}
	return s, json.Unmarshal(body, &s)
}

// statszSampler polls /statsz every 5 ms while started and keeps the
// deepest job queue it saw.
type statszSampler struct {
	quit, done chan struct{}
	max        int
}

func (s *statszSampler) start(client *http.Client, base string) {
	s.quit, s.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(s.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
				if st, err := statsz(client, base); err == nil && st.QueueDepth > s.max {
					s.max = st.QueueDepth
				}
			}
		}
	}()
}

// stop ends sampling and waits for the sampler to exit.
func (s *statszSampler) stop() {
	close(s.quit)
	<-s.done
}

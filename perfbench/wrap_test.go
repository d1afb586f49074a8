package main

import (
	"bytes"
	"testing"

	"cachepirate/internal/machine"
	"cachepirate/internal/simulate"
	"cachepirate/internal/trace"
	"cachepirate/internal/workload"
)

func TestCountingFactoryPassesThrough(t *testing.T) {
	spec := workload.MustByName("omnetpp")
	f := &countingFactory{newGen: spec.New}
	a, b := f.New(7), f.New(7)
	ref := spec.New(7)
	for i := 0; i < 1000; i++ {
		want := ref.Next()
		if got := a.Next(); got != want {
			t.Fatalf("op %d through the wrapper = %+v, want %+v", i, got, want)
		}
	}
	b.Next()
	if a.Name() != ref.Name() || a.MLP() != ref.MLP() || a.WorkingSet() != ref.WorkingSet() {
		t.Error("wrapper changes the generator's name, MLP or working set")
	}
	if runs, ops := f.counts(); runs != 2 || ops != 1001 {
		t.Errorf("counts = %d runs, %d ops; want 2, 1001", runs, ops)
	}
}

type closeCounter struct {
	trace.BlockSource
	closed int
}

func (c *closeCounter) Close() error { c.closed++; return nil }

func TestTimedSourcePassesThrough(t *testing.T) {
	tr := simulate.CaptureTrace(workload.MustByName("microrand").New, 3, 0, 5000)
	var enc bytes.Buffer
	if err := tr.WriteV2(&enc); err != nil {
		t.Fatal(err)
	}
	open := func() (trace.BlockSource, error) {
		return trace.NewReader(bytes.NewReader(enc.Bytes()), trace.ReaderOptions{})
	}

	var timer sourceTimer
	inner := &closeCounter{BlockSource: trace.NewReplayer(tr, false)}
	src, err := timer.wrap(func() (trace.BlockSource, error) { return inner, nil })()
	if err != nil {
		t.Fatal(err)
	}
	var got []trace.Record
	for {
		blk, err := src.NextBlock()
		if err != nil {
			t.Fatal(err)
		}
		if blk == nil {
			break
		}
		got = append(got, blk...)
	}
	if len(got) != tr.Len() {
		t.Fatalf("wrapper delivered %d records, want %d", len(got), tr.Len())
	}
	for i := range got {
		if got[i] != tr.Records[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], tr.Records[i])
		}
	}
	if src.NumRecords() != int64(tr.Len()) || src.NumInstructions() != int64(tr.Instructions()) {
		t.Error("wrapper changes the source's record or instruction totals")
	}
	if err := src.(*timedSource).Close(); err != nil || inner.closed != 1 {
		t.Errorf("Close forwarded %d times (err %v), want once", inner.closed, err)
	}
	if timer.records.Load() != int64(tr.Len()) || timer.opens.Load() != 1 || timer.busy.Load() <= 0 {
		t.Errorf("timer saw %d records, %d opens, %d ns busy", timer.records.Load(), timer.opens.Load(), timer.busy.Load())
	}

	cfg := simulate.Config{Machine: machine.NehalemConfigNoPrefetch(), Engine: simulate.EngineFused, Workers: 2}
	plain, err := simulate.SweepStream(cfg, open)
	if err != nil {
		t.Fatal(err)
	}
	var sweepTimer sourceTimer
	timed, err := simulate.SweepStream(cfg, sweepTimer.wrap(open))
	if err != nil {
		t.Fatal(err)
	}
	if digest(plain) != digest(timed) {
		t.Error("a sweep through the timing wrapper differs from the plain sweep")
	}
}

func TestServeScheduleMatchesCurveloadSessions(t *testing.T) {
	const sessions = 3
	reads := readsPerSecond * sessionSeconds
	bodies := map[int]bool{}
	for c := 0; c < serveClients; c++ {
		ops := serveSchedule(1, c, sessions)
		var n [3]int
		for i, op := range ops {
			n[op.kind]++
			if op.kind == opUpload {
				if bodies[op.body] || op.body >= serveClients*sessions {
					t.Fatalf("client %d uploads body %d twice or out of range", c, op.body)
				}
				bodies[op.body] = true
				for k := range serveKeys {
					if next := ops[i+1+k]; next.kind != opCold || next.key != k {
						t.Fatalf("client %d: op %d after an upload is %+v, want a cold %s request", c, i+1+k, next, serveKeys[k].kind)
					}
				}
			}
		}
		if n[opRead] != sessions*reads || n[opCold] != sessions*len(serveKeys) || n[opUpload] != sessions {
			t.Errorf("client %d: %d reads, %d cold, %d uploads; want %d, %d, %d", c, n[opRead], n[opCold], n[opUpload], sessions*reads, sessions*len(serveKeys), sessions)
		}
	}
	if len(bodies) != serveClients*sessions {
		t.Errorf("%d upload bodies used, want every one of %d", len(bodies), serveClients*sessions)
	}
}

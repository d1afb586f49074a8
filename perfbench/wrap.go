package main

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"cachepirate/internal/core"
	"cachepirate/internal/trace"
	"cachepirate/internal/workload"
)

// countingFactory wraps a core.GenFactory and counts, from outside the
// program, how often the profiler starts a fresh Target (factory calls)
// and how many ops those Targets produce (Generator.Next calls). Each
// generator counts privately, so concurrent workers never share a
// counter on the simulation's hot path.
type countingFactory struct {
	newGen core.GenFactory

	mu   sync.Mutex
	gens []*countingGen
}

func (f *countingFactory) New(seed uint64) workload.Generator {
	g := &countingGen{Generator: f.newGen(seed)}
	f.mu.Lock()
	f.gens = append(f.gens, g)
	f.mu.Unlock()
	return g
}

// counts returns the factory calls and Next calls so far. Call it only
// after the profiling call that used the factory has returned.
func (f *countingFactory) counts() (runs int, ops uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, g := range f.gens {
		ops += g.ops
	}
	return len(f.gens), ops
}

type countingGen struct {
	workload.Generator
	ops uint64
}

func (g *countingGen) Next() workload.Op {
	g.ops++
	return g.Generator.Next()
}

// sourceTimer hands out timedSources and sums, across all of them, the
// host time spent inside NextBlock/Rewind (decode busy time), the
// records they delivered and how many sources were opened.
type sourceTimer struct {
	busy    atomic.Int64 // nanoseconds
	records atomic.Int64
	opens   atomic.Int64
}

// wrap returns an opener that opens through open and times the result.
func (t *sourceTimer) wrap(open func() (trace.BlockSource, error)) func() (trace.BlockSource, error) {
	return func() (trace.BlockSource, error) {
		src, err := open()
		if err != nil {
			return nil, err
		}
		t.opens.Add(1)
		return &timedSource{src: src, t: t}, nil
	}
}

// timedSource is a pass-through trace.BlockSource that charges the
// time spent in the wrapped source to its sourceTimer. It forwards
// Close, so the engines still release file-backed sources.
type timedSource struct {
	src trace.BlockSource
	t   *sourceTimer
}

func (s *timedSource) NextBlock() ([]trace.Record, error) {
	start := time.Now()
	b, err := s.src.NextBlock()
	s.t.busy.Add(int64(time.Since(start)))
	s.t.records.Add(int64(len(b)))
	return b, err
}

func (s *timedSource) Rewind() error {
	start := time.Now()
	err := s.src.Rewind()
	s.t.busy.Add(int64(time.Since(start)))
	return err
}

func (s *timedSource) NumRecords() int64      { return s.src.NumRecords() }
func (s *timedSource) NumInstructions() int64 { return s.src.NumInstructions() }

func (s *timedSource) Close() error {
	if c, ok := s.src.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

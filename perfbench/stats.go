package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"

	"cachepirate/internal/analysis"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points dividing xs into quarters by
// the method Python's statistics.quantiles(xs, n=4) uses by default
// ("exclusive"), so spreads computed here and by spread.py
// agree. One sample gives that sample three times; none gives NaNs.
func quartiles(xs []float64) [3]float64 {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs: the smallest sample with at least p% of the samples at or
// below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tailPercentiles are the percentiles a timing's tail is reported at,
// from the highest down.
var tailPercentiles = []float64{99, 90, 50}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it, and that percentile. With too few samples for any
// of them (fewer than 20) it returns the maximum, labelled 100.
func tail(xs []float64) (value, p float64) {
	n := len(xs)
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if n-rank >= 10 {
			return percentile(xs, p), p
		}
	}
	return percentile(xs, 100), 100
}

// digest is a Float64bits fingerprint of every simulated figure of a
// curve: two curves share a digest only if every point is bit-identical.
func digest(c *analysis.Curve) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(len(c.Points)))
	for _, p := range c.Points {
		trusted := uint64(0)
		if p.Trusted {
			trusted = 1
		}
		put(uint64(p.CacheBytes))
		put(math.Float64bits(p.CPI))
		put(math.Float64bits(p.BandwidthGBs))
		put(math.Float64bits(p.FetchRatio))
		put(math.Float64bits(p.MissRatio))
		put(math.Float64bits(p.PirateFetchRatio))
		put(trusted)
		put(uint64(p.Samples))
	}
	return h.Sum64()
}

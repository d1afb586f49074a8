package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"cachepirate/internal/analysis"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
	in := []float64{2, 1}
	median(in)
	if in[0] != 2 {
		t.Error("median reordered its input")
	}
}

// The expected values are Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{3.5, 1.25, 9, 2, 7.75}, [3]float64{1.625, 3.5, 8.375}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		got := quartiles(tc.in)
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
				break
			}
		}
	}
}

func TestPercentileAndTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000 down to 1
	}
	for _, tc := range []struct{ p, want float64 }{{50, 500}, {99, 990}, {100, 1000}, {0.01, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..1000, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	for _, tc := range []struct {
		n     int
		wantP float64
	}{{1000, 99}, {999, 90}, {100, 90}, {99, 50}, {20, 50}, {19, 100}, {2, 100}} {
		if _, p := tail(xs[:tc.n]); p != tc.wantP {
			t.Errorf("tail of %d samples reports p%v, want p%v", tc.n, p, tc.wantP)
		}
	}
	if v, _ := tail([]float64{3, 9, 4}); v != 9 {
		t.Errorf("tail of three samples = %v, want their maximum", v)
	}
}

func TestDigestSeesEveryBit(t *testing.T) {
	base := func() *analysis.Curve {
		return &analysis.Curve{Name: "x", Points: []analysis.Point{
			{CacheBytes: 1 << 20, CPI: 1.5, BandwidthGBs: 2, FetchRatio: 0.1, MissRatio: 0.05, PirateFetchRatio: 0.01, Trusted: true, Samples: 3},
			{CacheBytes: 2 << 20, CPI: 1.25, FetchRatio: 0.05, MissRatio: 0.02, Trusted: true, Samples: 3},
		}}
	}
	d := digest(base())
	if digest(base()) != d {
		t.Fatal("digest is not deterministic")
	}
	renamed := base()
	renamed.Name = "y"
	if digest(renamed) != d {
		t.Error("digest depends on the curve name, not only its figures")
	}
	for i, mutate := range []func(c *analysis.Curve){
		func(c *analysis.Curve) { c.Points[0].CacheBytes++ },
		func(c *analysis.Curve) { c.Points[0].CPI = math.Nextafter(c.Points[0].CPI, 2) },
		func(c *analysis.Curve) { c.Points[1].BandwidthGBs = math.Copysign(0, -1) },
		func(c *analysis.Curve) { c.Points[1].FetchRatio = math.Nextafter(c.Points[1].FetchRatio, 1) },
		func(c *analysis.Curve) { c.Points[1].MissRatio = 0.03 },
		func(c *analysis.Curve) { c.Points[0].PirateFetchRatio = 0.02 },
		func(c *analysis.Curve) { c.Points[1].Trusted = false },
		func(c *analysis.Curve) { c.Points[0].Samples = 2 },
		func(c *analysis.Curve) { c.Points = c.Points[:1] },
	} {
		c := base()
		mutate(c)
		if digest(c) == d {
			t.Errorf("mutation %d left the digest unchanged", i)
		}
	}
}

// The metric lists the program reports must be the ones BENCHMARK.json
// declares, in name and unit.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		what string
		have []spec
		decl []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, decl.EndToEnd}, {"per_layer", perLayer, decl.PerLayer}} {
		if len(tc.have) != len(tc.decl) {
			t.Errorf("%s: program reports %d metrics, BENCHMARK.json declares %d", tc.what, len(tc.have), len(tc.decl))
			continue
		}
		for i, s := range tc.have {
			if s.name != tc.decl[i].Name || s.unit != tc.decl[i].Unit {
				t.Errorf("%s[%d]: program %s [%s], BENCHMARK.json %s [%s]", tc.what, i, s.name, s.unit, tc.decl[i].Name, tc.decl[i].Unit)
			}
		}
	}
	if len(decl.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program runs %d", len(decl.Workloads), len(workloads))
	}
	for _, w := range decl.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a program workload", w.Name)
		}
		if _, ok := pinned[w.Name]; !ok {
			t.Errorf("workload %q has no pinned digests", w.Name)
		}
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{199, 0.95, 190, false}, // 9 beyond
		{200, 0.95, 190, true},  // exactly 10 beyond
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true},
		{20, 0.50, 10, true},
		{0, 0.50, 0, false},
	} {
		got, ok := percentile(ramp(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if s := relSpread([]float64{90, 100, 110}); s != 0.2 {
		t.Errorf("relSpread of three runs = %v, want (max-min)/median = 0.2", s)
	}
	// Python: statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) = [3.5, 13.5, 31.0]
	ten := []float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11}
	if q1, q3 := quartiles(ten); q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
	if s := relSpread(ten); s != (31-3.5)/13.5 {
		t.Errorf("relSpread of ten runs = %v, want IQR/median", s)
	}
}

func TestZipfSkew(t *testing.T) {
	const n, theta, draws = 10_000, 0.99, 400_000
	z := newZipf(n, theta)
	rng := newRNG(7, 0)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[z.rank(rng.Float64())]++
	}
	// Expected mass of the first k ranks is zeta(k)/zeta(n).
	zeta := func(k int) float64 {
		s := 0.0
		for i := 1; i <= k; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	for _, k := range []int{1, 10, 100, 1000} {
		got := 0
		for _, c := range counts[:k] {
			got += c
		}
		share, want := float64(got)/draws, zeta(k)/zeta(n)
		if math.Abs(share-want) > 0.02 {
			t.Errorf("first %d ranks drew %.3f of samples, want %.3f", k, share, want)
		}
	}
	if !slices.IsSortedFunc(counts[:5], func(a, b int) int { return b - a }) {
		t.Errorf("the five most popular ranks are not in popularity order: %v", counts[:5])
	}
	for _, size := range []int{kvRows, kvRows / 50} {
		seen := make([]bool, size)
		for r := 0; r < size; r++ {
			k := scramble(r, size)
			if seen[k] {
				t.Fatalf("scramble is not a bijection on %d keys: %d repeats", size, k)
			}
			seen[k] = true
		}
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},    // overlaps a: [10,50) counted once
		{Name: "c", Start: 90, End: 120, Parent: 0},   // clipped to the parent's end
		{Name: "a1", Start: 12, End: 20, Parent: 1},   // grandchild: reduces a, not op
		{Name: "other", Start: 0, End: 7, Parent: -1}, // unrelated root
	}
	want := []int64{100 - 40 - 10, 20 - 8, 30, 30, 8, 7}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	sum := summarizeSpans(spans)
	if len(sum) != 6 || sum[0].Name != "a" || sum[0].MedianSelfMs != 12e-6 {
		t.Errorf("summarizeSpans = %+v", sum)
	}
}

// The dashboard reference is built from prefix tables; recompute two panels
// the slow way, row by row, and compare.
func TestOLAPReferenceMatchesBruteForce(t *testing.T) {
	const seed = 11
	o := newOLAP(seed, 40).(*olapInst)
	const below, qty = 23, 7
	var regions [olapRegions]agg
	var amounts []float64
	for id := 0; id < o.nFacts; id++ {
		f := olapRow(seed, id)
		if f.amount != math.Trunc(f.amount*4)/4 || f.amount < 0 || f.amount >= olapAmounts/4 {
			t.Fatalf("fact %d has amount %v, not a multiple of 0.25 in range", id, f.amount)
		}
		if f.qty < below {
			regions[f.region].n++
			regions[f.region].sum += f.amount
		}
		if f.qty == qty {
			amounts = append(amounts, f.amount)
		}
	}
	for g := range regions {
		var got agg
		for q := 0; q < below; q++ {
			got.n, got.sum = got.n+o.byRegion[g][q].n, got.sum+o.byRegion[g][q].sum
		}
		if got != regions[g] {
			t.Errorf("region %d: reference %+v, brute force %+v", g, got, regions[g])
		}
	}
	slices.Sort(amounts)
	slices.Reverse(amounts)
	if want := amounts[:min(olapTopN, len(amounts))]; !slices.Equal(o.topAmounts[qty], want) {
		t.Errorf("top amounts for qty %d differ from brute force", qty)
	}
}

func TestAIScoreDrifts(t *testing.T) {
	early, late := aiScore(0, 1, 1, 0), aiScore(50_000, 1, 1, 0)
	if early != 3 || late != 3 || aiScore(50_000, 1, 0, 0) != 3 || aiScore(0, 1, 0, 0) != 2 {
		t.Errorf("aiScore does not shift weight from b*b to a as id grows: %v %v", early, late)
	}
}

// BENCHMARK.json repeats what the program defines; this keeps them in step.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var man struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(man.Command, []string{"bash", "benchmark/run.sh"}) || !slices.Equal(man.Paths, []string{"benchmark"}) {
		t.Errorf("command %v, paths %v", man.Command, man.Paths)
	}
	ws := workloads()
	if len(man.Workloads) != len(ws) {
		t.Fatalf("%d workloads in the manifest, %d in the program", len(man.Workloads), len(ws))
	}
	for i, w := range ws {
		if man.Workloads[i].Name != w.name || man.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, program %q: %q", i, man.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	check := func(kind string, got []metric, defs []metricDef, bounded bool) {
		var want []metricDef
		for _, d := range defs {
			if !bounded || d.manifest {
				want = append(want, d)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the manifest, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != better {
				t.Errorf("%s %d: manifest %+v, program %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound differs from the program's %v", kind, d.name, d.bound)
			}
		}
	}
	check("end_to_end", man.EndToEnd, endToEndDefs, true)
	check("per_layer", man.PerLayer, perLayerDefs, false)
}

// TestSmoke runs every workload briefly at 1/50 scale, untraced and traced,
// with all checks on: a broken benchmark or a failing correctness check fails
// here before anyone trusts a number.
func TestSmoke(t *testing.T) {
	cfg := runConfig{window: 300 * time.Millisecond, warmup: 50 * time.Millisecond, scale: 50, setups: 1,
		probeBudget: 100 * time.Millisecond, workdir: t.TempDir()}
	for _, w := range workloads() {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", w.name, traced), func(t *testing.T) {
				res, err := runWorkload(w, 5, cfg, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Samples == 0 {
					t.Errorf("correct=%v failed=%d samples=%d: %s", res.Correct, res.Failed, res.Samples, res.Err)
				}
				names := []string{mOps, mP50, mSetup}
				if traced {
					names = perLayerNames()
				}
				for _, name := range names {
					if v, ok := res.Metrics[name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("metric %s = %v, %v", name, v, ok)
					}
				}
			})
		}
	}
}

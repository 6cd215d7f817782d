// Command benchmark is the repository's cross-commit performance referee: it
// boots the real stack (durable engine, wire server on loopback TCP, native
// client) in one process, drives one of four seeded workloads closed-loop,
// checks every result, and prints absolute end-to-end metrics — or, with
// -trace 1, per-layer metrics from a separate traced run. README.md explains
// the metrics, the workloads and the modes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"
)

// metricDef describes one reported metric. BENCHMARK.json at the repository
// root repeats name, unit, direction and bound; TestManifest keeps the two in
// step.
type metricDef struct {
	name, unit string
	higher     bool    // true when a larger value is better
	bound      float64 // share of the baseline by which it may worsen (end-to-end only)
	// manifest is false for a percentile that only some workloads collect
	// enough samples for: it is printed and compared by -compare where it
	// applies, but BENCHMARK.json lists only metrics every workload reports.
	manifest bool
}

// The bounds come from repeated same-code runs on the unmodified tree
// (README.md, "Bounds"). On a quiet host ten seeds spread by 2-5%, but the
// shared 2-core host has slow periods of ten minutes and more in which
// throughput falls by 17-25%. A 10% bound would reject unchanged code, so
// every metric gets the 25% that BENCHMARK.json allows.
var endToEndDefs = []metricDef{
	{name: mOps, unit: "1/s", higher: true, bound: 0.25, manifest: true},
	{name: mP50, unit: "ms", bound: 0.25, manifest: true},
	{name: mP95, unit: "ms", bound: 0.25},
	{name: mP99, unit: "ms", bound: 0.25},
	{name: mSetup, unit: "s", bound: 0.25, manifest: true},
}

// failedShareBound is absolute: failed/attempted may rise by this much.
const failedShareBound = 0.001

var perLayerDefs = []metricDef{
	{name: lWireSelf, unit: "ms"},
	{name: lWireBytes, unit: "bytes/op"},
	{name: lWireWrites, unit: "1/op"},
	{name: lParse, unit: "us"},
	{name: lPlan, unit: "us"},
	{name: lPlanCacheHit, unit: "share", higher: true},
	{name: lExec, unit: "ms"},
	{name: lRowsExamined, unit: "rows/row"},
	{name: lStripeWait, unit: "share"},
	{name: lConflictRetry, unit: "share"},
	{name: lPoolHit, unit: "share", higher: true},
	{name: lPoolTouches, unit: "1/op"},
	{name: lScanPages, unit: "1/s", higher: true},
	{name: lFsyncs, unit: "1/commit"},
	{name: lWalAmp, unit: "bytes/byte"},
	{name: lSyncP50, unit: "ms"},
	{name: lSyncP99, unit: "ms"},
	{name: lCkptS, unit: "s"},
	{name: lCkptBytes, unit: "bytes"},
	{name: lRecoverS, unit: "s"},
	{name: lAITrain, unit: "1/s", higher: true},
	{name: lAIInfer, unit: "1/s", higher: true},
	{name: lAIExtract, unit: "ms"},
	{name: lAIFinetune, unit: "share", higher: true},
	{name: lTraceOverhead, unit: "ratio", higher: true},
}

func perLayerNames() []string {
	names := make([]string, len(perLayerDefs))
	for i, d := range perLayerDefs {
		names[i] = d.name
	}
	return names
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all four)")
		seed         = flag.Int64("seed", 1, "seed of every generated input")
		seconds      = flag.Float64("seconds", 20, "length of the timed window")
		trace        = flag.Int("trace", 0, "1 = traced run printing per-layer metrics instead of end-to-end ones")
		traceOut     = flag.String("trace-out", "", "span file of a traced run (default <workdir>/trace-<workload>-<seed>.json)")
		repeat       = flag.Int("repeat", 1, "run the whole set this many times")
		compare      = flag.Bool("compare", false, "with -repeat: hold the spread of every metric against its bound")
		workdir      = flag.String("workdir", ".bench_build", "directory for data files and span files")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 || *repeat < 1 {
		flag.Usage()
		os.Exit(2)
	}
	var selected []*workload
	for _, w := range workloads() {
		if *workloadName == "" || *workloadName == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workloadName)
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cfg := runConfig{window: time.Duration(*seconds * float64(time.Second)), warmup: 2 * time.Second, scale: 1, setups: 3,
		probeBudget: 3 * time.Second, workdir: *workdir, traceOut: *traceOut}
	printContext(*workdir)

	var sets [][]*result
	for r := 0; r < *repeat; r++ {
		var set []*result
		for _, w := range selected {
			res, err := runWorkload(w, *seed, cfg, *trace == 1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
				os.Exit(1)
			}
			printResult(res, *trace == 1)
			set = append(set, res)
		}
		sets = append(sets, set)
	}
	ok := true
	if *compare {
		ok = printComparison(sets)
	}
	// The last line is the machine-readable result: one object for a single
	// workload, an object keyed by workload name otherwise.
	last := sets[len(sets)-1]
	var line any = resultJSON(last[0], *trace == 1)
	if len(last) > 1 {
		all := map[string]any{}
		for _, res := range last {
			all[res.Workload] = resultJSON(res, *trace == 1)
		}
		line = all
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !ok {
		os.Exit(1)
	}
}

// runWorkload scales the workload's pool with its tables and dispatches to
// the untraced or the traced run.
func runWorkload(w *workload, seed int64, cfg runConfig, traced bool) (*result, error) {
	scaled := *w
	if w.poolPages > 0 {
		scaled.poolPages = max(w.poolPages/cfg.scale, 8)
	}
	if traced {
		return runTraced(&scaled, seed, cfg)
	}
	return runUntraced(&scaled, seed, cfg)
}

// printContext records what explains a shift but is not a metric.
func printContext(workdir string) {
	probe, err := fsyncProbeUs(workdir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsync probe: %v\n", err)
	}
	fmt.Printf("context: nproc=%d GOMAXPROCS=%d go=%s fsync_probe_us=%.1f\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), probe)
}

func printResult(res *result, traced bool) {
	defs, kind := endToEndDefs, "end-to-end"
	if traced {
		defs, kind = perLayerDefs, "per-layer (traced)"
	}
	fmt.Printf("\n%s seed=%d %s: attempted=%d failed=%d failed_share=%.6f samples=%d correct=%v\n",
		res.Workload, res.Seed, kind, res.Attempted, res.Failed,
		ratio(float64(res.Failed), float64(res.Attempted)), res.Samples, res.Correct)
	if res.Err != "" {
		fmt.Printf("  first failure: %s\n", res.Err)
	}
	for _, d := range defs {
		if v, ok := res.Metrics[d.name]; ok {
			fmt.Printf("  %-32s %14.4f %s\n", d.name, v, d.unit)
		} else {
			fmt.Printf("  %-32s %14s    (fewer than %d samples beyond it)\n", d.name, "-", minBeyond)
		}
	}
	if len(res.Spans) > 0 {
		fmt.Printf("  %-32s %8s %12s %12s %8s\n", "span", "count", "median_ms", "self_ms", "self%")
		for _, s := range res.Spans {
			fmt.Printf("  %-32s %8d %12.4f %12.4f %7.1f%%\n", s.Name, s.Count, s.MedianMs, s.MedianSelfMs, 100*s.TotalSelfShare)
		}
	}
}

// resultJSON is the last-line object: exactly correct, attempted, failed and
// metrics, the metrics being those BENCHMARK.json lists for this kind of run.
func resultJSON(res *result, traced bool) map[string]any {
	defs := endToEndDefs
	if traced {
		defs = perLayerDefs
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		if traced || d.manifest {
			metrics[d.name] = value{res.Metrics[d.name], d.unit}
		}
	}
	return map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	}
}

// printComparison holds, for every (end-to-end metric, workload) pair, the
// spread of the repeated sets (relSpread) against the metric's bound, and
// failed_share against its absolute bound. It reports false when any pair is
// out of bounds.
func printComparison(sets [][]*result) bool {
	fmt.Printf("\ncompare: %d sets of the same code\n", len(sets))
	fmt.Printf("  %-16s %-10s %12s %10s %8s  %s\n", "workload", "metric", "median", "spread", "bound", "")
	ok := true
	for wi, first := range sets[0] {
		for _, d := range endToEndDefs {
			var vals []float64
			for _, set := range sets {
				if v, has := set[wi].Metrics[d.name]; has {
					vals = append(vals, v)
				}
			}
			if len(vals) < len(sets) {
				continue // percentile without enough samples on this workload
			}
			spread, verdict := relSpread(vals), "ok"
			if spread > d.bound {
				verdict, ok = "OUT OF BOUNDS", false
			}
			fmt.Printf("  %-16s %-10s %12.4f %9.2f%% %7.0f%%  %s\n", first.Workload, d.name, median(vals), 100*spread, 100*d.bound, verdict)
		}
		var shares []float64
		for _, set := range sets {
			shares = append(shares, ratio(float64(set[wi].Failed), float64(set[wi].Attempted)))
		}
		verdict := "ok"
		if slices.Max(shares)-slices.Min(shares) > failedShareBound || !allCorrect(sets, wi) {
			verdict, ok = "OUT OF BOUNDS", false
		}
		fmt.Printf("  %-16s %-10s %12.6f %10s %8s  %s\n", first.Workload, "failed_share", median(shares), "", fmt.Sprintf("+%g", failedShareBound), verdict)
	}
	return ok
}

func allCorrect(sets [][]*result, wi int) bool {
	for _, set := range sets {
		if !set[wi].Correct {
			return false
		}
	}
	return true
}

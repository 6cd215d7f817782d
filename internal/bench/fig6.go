package bench

import (
	"fmt"
	"strings"
	"time"

	"neurdb/internal/aiengine"
	"neurdb/internal/bench/workload"
	"neurdb/internal/models"
	"neurdb/internal/nn"
	"neurdb/internal/rel"
)

// avazuSpec is the model shape for Workload E.
func avazuSpec(seed int64) models.Spec {
	return models.Spec{
		Arch: "armnet", Fields: workload.AvazuFields, Vocab: workload.AvazuTotalVocab,
		EmbDim: 8, Hidden: 64, Classification: false, Seed: seed,
	}
}

// diabetesSpec is the model shape for Workload H.
func diabetesSpec(seed int64) models.Spec {
	return models.Spec{
		Arch: "armnet", Fields: workload.DiabetesFields, Vocab: workload.DiabetesTotalVocab,
		EmbDim: 8, Hidden: 64, Classification: true, Seed: seed,
	}
}

// Fig6aRow is one workload's end-to-end comparison (paper Fig. 6a).
type Fig6aRow struct {
	Workload         string
	BaselineLatency  time.Duration
	NeurDBLatency    time.Duration
	BaselineTput     float64 // samples/sec
	NeurDBTput       float64
	LatencyReduction float64 // fraction, paper: 41.3% (E), 48.6% (H)
	TputSpeedup      float64 // paper: 1.96× (E), 2.92× (H)
}

// featurized is the NeurDB side's source, the same kind PREDICT's task reads:
// each Next takes the workload's next rows and featurizes them in memory, on
// the task's goroutine, with no text round trip.
type featurized struct {
	rows rowSource
	feat func([]rel.Row) (x, y *nn.Matrix)
}

// Next implements aiengine.DataSource.
func (f featurized) Next() (*aiengine.Batch, bool) {
	rows, ok := f.rows.Next()
	if !ok {
		return nil, false
	}
	x, y := f.feat(rows)
	return &aiengine.Batch{X: x, Y: y}, true
}

// RunFig6a measures end-to-end latency and training throughput of NeurDB's
// in-database path versus the PostgreSQL+P batch-loading baseline for
// Workloads E and H.
func RunFig6a(sc Scale) ([]Fig6aRow, error) {
	var out []Fig6aRow

	// Workload E (Avazu CTR regression).
	{
		base, err := BaselineTrain(avazuSpec(1),
			aiengine.TrainConfig{LR: 0.01},
			workload.NewAvazu(11).NewBatchSource(sc.BatchSize, sc.Fig6aBatches, 0),
			workload.AvazuFeaturizer)
		if err != nil {
			return nil, err
		}
		store := models.NewStore()
		engine := aiengine.NewEngine(store)
		src := featurized{
			workload.NewAvazu(11).NewBatchSource(sc.BatchSize, sc.Fig6aBatches, 0),
			workload.AvazuFeaturizer}
		neur, err := engine.Train(avazuSpec(1), aiengine.TrainConfig{LR: 0.01}, src)
		if err != nil {
			return nil, err
		}
		out = append(out, fig6aRow("E", base, neur))
	}

	// Workload H (Diabetes classification).
	{
		base, err := BaselineTrain(diabetesSpec(2),
			aiengine.TrainConfig{LR: 0.01},
			workload.NewDiabetes(12).NewSource(sc.BatchSize, sc.Fig6aBatches),
			workload.DiabetesFeaturizer)
		if err != nil {
			return nil, err
		}
		store := models.NewStore()
		engine := aiengine.NewEngine(store)
		src := featurized{
			workload.NewDiabetes(12).NewSource(sc.BatchSize, sc.Fig6aBatches),
			workload.DiabetesFeaturizer}
		neur, err := engine.Train(diabetesSpec(2), aiengine.TrainConfig{LR: 0.01}, src)
		if err != nil {
			return nil, err
		}
		out = append(out, fig6aRow("H", base, neur))
	}
	return out, nil
}

func fig6aRow(name string, base, neur *aiengine.TrainOutcome) Fig6aRow {
	row := Fig6aRow{
		Workload:        name,
		BaselineLatency: base.Duration,
		NeurDBLatency:   neur.Duration,
		BaselineTput:    base.Throughput,
		NeurDBTput:      neur.Throughput,
	}
	if base.Duration > 0 {
		row.LatencyReduction = 1 - neur.Duration.Seconds()/base.Duration.Seconds()
	}
	if base.Throughput > 0 {
		row.TputSpeedup = neur.Throughput / base.Throughput
	}
	return row
}

// RenderFig6a prints the paper-vs-measured table.
func RenderFig6a(rows []Fig6aRow) string {
	var sb strings.Builder
	sb.WriteString("Figure 6(a) — End-to-end AI analytics: NeurDB vs PostgreSQL+P\n")
	sb.WriteString("paper: E: 41.3% lower latency, 1.96x throughput; H: 48.6% lower latency, 2.92x throughput\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %s: latency %8.0fms -> %8.0fms (%.1f%% lower) | tput %8.0f -> %8.0f samples/s (%.2fx)\n",
			r.Workload,
			float64(r.BaselineLatency.Milliseconds()), float64(r.NeurDBLatency.Milliseconds()),
			r.LatencyReduction*100, r.BaselineTput, r.NeurDBTput, r.TputSpeedup)
	}
	return sb.String()
}

// Fig6bPoint is one data-volume point (paper Fig. 6b).
type Fig6bPoint struct {
	Batches  int
	Baseline time.Duration
	NeurDB   time.Duration
}

// RunFig6b sweeps the number of data batches for Workload E.
func RunFig6b(sc Scale) ([]Fig6bPoint, error) {
	var out []Fig6bPoint
	for _, n := range sc.Fig6bBatchCounts {
		base, err := BaselineTrain(avazuSpec(1),
			aiengine.TrainConfig{LR: 0.01},
			workload.NewAvazu(21).NewBatchSource(sc.BatchSize, n, 0),
			workload.AvazuFeaturizer)
		if err != nil {
			return nil, err
		}
		engine := aiengine.NewEngine(models.NewStore())
		src := featurized{
			workload.NewAvazu(21).NewBatchSource(sc.BatchSize, n, 0),
			workload.AvazuFeaturizer}
		neur, err := engine.Train(avazuSpec(1), aiengine.TrainConfig{LR: 0.01}, src)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig6bPoint{Batches: n, Baseline: base.Duration, NeurDB: neur.Duration})
	}
	return out, nil
}

// RenderFig6b prints the sweep.
func RenderFig6b(points []Fig6bPoint) string {
	var sb strings.Builder
	sb.WriteString("Figure 6(b) — Effect of data volume (Workload E latency)\n")
	sb.WriteString("paper: NeurDB consistently below PostgreSQL+P, both growing ~linearly\n")
	for _, p := range points {
		marker := ""
		if p.NeurDB < p.Baseline {
			marker = "  [NeurDB wins]"
		}
		fmt.Fprintf(&sb, "  %4d batches: PostgreSQL+P %8.0fms | NeurDB %8.0fms%s\n",
			p.Batches, float64(p.Baseline.Milliseconds()), float64(p.NeurDB.Milliseconds()), marker)
	}
	return sb.String()
}

// Fig6cResult carries the loss trajectories with and without incremental
// updates under cluster drift (paper Fig. 6c).
type Fig6cResult struct {
	SamplesAxis []int
	LossNoInc   []float64
	LossInc     []float64
	DriftPoints []int // sample indexes where the cluster switched
	// MeanPostDriftNoInc/Inc average the loss over post-drift segments —
	// the scalar the shape check uses.
	MeanPostDriftNoInc float64
	MeanPostDriftInc   float64
	// StorageFullBytes is what storing every post-drift version as a full
	// model would cost; StorageIncBytes is what the incremental layer-level
	// saves actually cost (paper Fig. 3's storage-saving claim).
	StorageFullBytes int64
	StorageIncBytes  int64
}

// RunFig6c reproduces the drift-adaptation experiment: training over the
// Avazu stream with a cluster switch every SwitchEvery samples (C1..C5).
// The no-incremental path is the classical workflow the paper's
// introduction criticizes: when drift is detected, the model is completely
// retrained on the new data (fresh initialization, full save). The
// incremental path fine-tunes the previous version's final layers and
// persists only those layers.
func RunFig6c(sc Scale) (*Fig6cResult, error) {
	batches := sc.Fig6cSwitchEvery * workloadClusters / sc.BatchSize
	if batches < workloadClusters {
		batches = workloadClusters
	}
	batchesPerCluster := batches / workloadClusters

	res := &Fig6cResult{}

	// Path 1: complete retraining at each detected drift — a fresh model
	// trained on the new cluster's data, stored as a full version.
	{
		store := models.NewStore()
		engine := aiengine.NewEngine(store)
		gen := workload.NewAvazu(31)
		for c := 0; c < workloadClusters; c++ {
			gen.SetCluster(c)
			src := featurized{
				gen.NewBatchSource(sc.BatchSize, batchesPerCluster, 0),
				workload.AvazuFeaturizer}
			out, err := engine.Train(avazuSpec(3), aiengine.TrainConfig{LR: 0.01}, src)
			if err != nil {
				return nil, err
			}
			res.LossNoInc = append(res.LossNoInc, out.Losses...)
		}
		res.StorageFullBytes = store.StorageBytes()
	}

	// Path 2: incremental updates over the *same* sample stream (one
	// generator, sequential draws — identical data to path 1). Train fully
	// on C1, then fine-tune the non-embedding layers on each subsequent
	// cluster as it arrives.
	{
		store := models.NewStore()
		engine := aiengine.NewEngine(store)
		gen := workload.NewAvazu(31)
		gen.SetCluster(0)
		src := featurized{
			gen.NewBatchSource(sc.BatchSize, batchesPerCluster, 0),
			workload.AvazuFeaturizer}
		out, err := engine.Train(avazuSpec(3), aiengine.TrainConfig{LR: 0.01}, src)
		if err != nil {
			return nil, err
		}
		res.LossInc = append(res.LossInc, out.Losses...)
		for c := 1; c < workloadClusters; c++ {
			gen.SetCluster(c)
			ftSrc := featurized{
				gen.NewBatchSource(sc.BatchSize, batchesPerCluster, 0),
				workload.AvazuFeaturizer}
			// Fine-tuning is the adaptation to the new cluster: freeze
			// embedding + interaction, adapt the head at a boosted learning
			// rate.
			ft, err := engine.FineTune(out.MID, 0, 2, 0.03, ftSrc)
			if err != nil {
				return nil, err
			}
			res.LossInc = append(res.LossInc, ft.Losses...)
		}
		res.StorageIncBytes = store.StorageBytes()
	}

	for i := range res.LossNoInc {
		res.SamplesAxis = append(res.SamplesAxis, i*sc.BatchSize)
	}
	for c := 1; c < workloadClusters; c++ {
		res.DriftPoints = append(res.DriftPoints, c*batchesPerCluster*sc.BatchSize)
	}
	// Post-drift means: batches after each switch (excluding the first
	// cluster's cold start).
	res.MeanPostDriftNoInc = meanAfter(res.LossNoInc, batchesPerCluster)
	res.MeanPostDriftInc = meanAfter(res.LossInc, batchesPerCluster)
	return res, nil
}

const workloadClusters = workload.AvazuClusters

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func meanAfter(xs []float64, from int) float64 {
	if from >= len(xs) {
		return 0
	}
	return mean(xs[from:])
}

// RenderFig6c prints the drift comparison.
func RenderFig6c(r *Fig6cResult) string {
	var sb strings.Builder
	sb.WriteString("Figure 6(c) — Loss under data-distribution drift (cluster switch C1..C5)\n")
	sb.WriteString("paper: with incremental updates, loss is lower after each drift and converges faster\n")
	fmt.Fprintf(&sb, "  post-drift mean loss: w/o incremental %.4f | with incremental %.4f\n",
		r.MeanPostDriftNoInc, r.MeanPostDriftInc)
	fmt.Fprintf(&sb, "  model storage: full saves %d bytes | incremental saves %d bytes\n",
		r.StorageFullBytes, r.StorageIncBytes)
	// Compact sparkline of both series (8 buckets).
	fmt.Fprintf(&sb, "  loss (w/o inc): %s\n", sparkline(r.LossNoInc, 16))
	fmt.Fprintf(&sb, "  loss (w/ inc):  %s\n", sparkline(r.LossInc, 16))
	return sb.String()
}

// sparkline renders a coarse text plot.
func sparkline(xs []float64, buckets int) string {
	if len(xs) == 0 {
		return ""
	}
	marks := []rune("▁▂▃▄▅▆▇█")
	per := len(xs) / buckets
	if per < 1 {
		per = 1
	}
	var vals []float64
	for i := 0; i+per <= len(xs); i += per {
		vals = append(vals, mean(xs[i:i+per]))
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	var sb strings.Builder
	for _, v := range vals {
		idx := int((v - lo) / span * float64(len(marks)-1))
		sb.WriteRune(marks[idx])
	}
	return sb.String()
}

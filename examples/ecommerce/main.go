// E-commerce (Workload E): click-through-rate prediction over a drifting
// Avazu-like stream, demonstrating the AI engine's streaming training path
// and the incremental model update that adapts to distribution drift
// (paper Fig. 6).
package main

import (
	"fmt"
	"log"

	"neurdb/internal/aiengine"
	"neurdb/internal/models"
	"neurdb/internal/workload"
)

func main() {
	const batchSize, batchesPerCluster = 256, 8

	spec := models.Spec{
		Arch: "armnet", Fields: workload.AvazuFields, Vocab: workload.AvazuTotalVocab,
		EmbDim: 8, Hidden: 64, Seed: 1,
	}
	store := models.NewStore()
	engine := aiengine.NewEngine(store)

	// Train on cluster C1 through the streaming loader.
	gen := workload.NewAvazu(7)
	gen.SetCluster(0)
	loader := aiengine.NewStreamingLoader(
		gen.NewBatchSource(batchSize, batchesPerCluster, 0),
		workload.AvazuFeaturizer, 16)
	out, err := engine.Train(spec, aiengine.TrainConfig{Name: "ctr", LR: 0.01}, loader)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained on C1: %d batches, %.0f samples/s, final loss %.4f\n",
		out.Batches, out.Throughput, out.Losses[len(out.Losses)-1])

	// The data drifts: clusters C2..C5 arrive. Fine-tune the head only —
	// the frozen embedding is shared across versions in the model store.
	for c := 1; c < workload.AvazuClusters; c++ {
		gen.SetCluster(c)
		ft, err := engine.FineTune(out.MID, 0, 2, 0.05,
			aiengine.NewStreamingLoader(
				gen.NewBatchSource(batchSize, batchesPerCluster, 0),
				workload.AvazuFeaturizer, 16))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("drift to C%d: fine-tuned to version ts=%d, final loss %.4f\n",
			c+1, ft.TS, ft.Losses[len(ft.Losses)-1])
	}
	fmt.Printf("model versions stored: %d, total bytes: %d (layers shared across versions)\n",
		len(store.Versions(out.MID)), store.StorageBytes())
}

// E-commerce (Workload E): click-through-rate prediction over a drifting
// click stream, through SQL PREDICT only. The first PREDICT trains a model on
// the first cluster of clicks; every later one fine-tunes that model on the
// cluster that has just arrived (paper Fig. 6c): the layered model store keeps
// the frozen embedding and stores only the layers the fine-tune changed.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"strings"

	"neurdb"
)

const (
	clusters   = 5
	perCluster = 1000 // clicks per cluster: the first trainRows train, the rest are predicted
	trainRows  = 800
	vocab      = 32 // distinct ids per categorical field
)

var fields = []string{"site", "app", "device", "hour"}

// clickModel is one cluster's ground truth: how each field's id moves the
// click-through rate.
type clickModel struct {
	weight [4]float64
	bias   float64
}

func newClickModel(r *rand.Rand) clickModel {
	m := clickModel{bias: r.Float64()*2 - 1}
	for f := range m.weight {
		m.weight[f] = r.Float64()*6 - 3
	}
	return m
}

// click draws one click's field ids and its click-through rate.
func (m clickModel) click(r *rand.Rand) (ids [4]int, ctr float64) {
	z := m.bias
	for f := range ids {
		ids[f] = r.Intn(vocab)
		z += m.weight[f] * (float64(ids[f])/vocab - 0.5)
	}
	return ids, 1 / (1 + math.Exp(-z))
}

func main() {
	db := neurdb.Open(neurdb.DefaultConfig())
	if _, err := db.Exec(`CREATE TABLE clicks (id INT PRIMARY KEY, site INT, app INT, device INT, hour INT, ctr DOUBLE)`); err != nil {
		log.Fatal(err)
	}
	// One statement serves every PREDICT: it trains on one id range and
	// predicts another. The model is bound to clicks.ctr, so the first
	// execution trains it and every later one fine-tunes it.
	predict, err := db.Prepare(`PREDICT VALUE OF ctr FROM clicks WHERE id >= ? AND id < ?
		TRAIN ON ` + strings.Join(fields, ", ") + ` WITH id >= ? AND id < ?`)
	if err != nil {
		log.Fatal(err)
	}

	r := rand.New(rand.NewSource(7))
	var labels []float64 // every click's rate, by id
	for c := 0; c < clusters; c++ {
		// The stream drifts: cluster c's clicks arrive, one INSERT of them.
		model := newClickModel(r)
		var sb strings.Builder
		sb.WriteString("INSERT INTO clicks VALUES ")
		for i := 0; i < perCluster; i++ {
			ids, ctr := model.click(r)
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d,%d,%d,%d,%d,%g)", len(labels), ids[0], ids[1], ids[2], ids[3], ctr)
			labels = append(labels, ctr)
		}
		if _, err := db.Exec(sb.String()); err != nil {
			log.Fatal(err)
		}
		if _, err := db.Exec(`ANALYZE clicks`); err != nil {
			log.Fatal(err)
		}

		first := c * perCluster
		held, end := first+trainRows, first+perCluster
		// mae runs the PREDICT that trains on [lo, hi) and scores its
		// predictions for this cluster's held-out clicks, which come back in
		// id order.
		mae := func(lo, hi int) (float64, string) {
			res, err := predict.Exec(held, end, lo, hi)
			if err != nil {
				log.Fatal(err)
			}
			if len(res.Predictions) != end-held {
				log.Fatalf("%d predictions for %d held-out clicks", len(res.Predictions), end-held)
			}
			var sum float64
			for i, p := range res.Predictions {
				sum += math.Abs(p - labels[held+i])
			}
			return sum / float64(len(res.Predictions)), res.Message
		}
		if c == 0 {
			m, msg := mae(first, held)
			fmt.Printf("C1: %s\n    held-out MAE %.4f\n", msg, m)
			continue
		}
		// Before adapting, the model still reflects the previous cluster:
		// fine-tuned once more on that cluster's clicks, it predicts this
		// one's. Then it fine-tunes on the clicks that just arrived.
		stale, _ := mae(first-perCluster, first-perCluster+trainRows)
		adapted, msg := mae(first, held)
		fmt.Printf("C%d: %s\n    held-out MAE %.4f on the previous cluster's clicks, %.4f after fine-tuning on this one's\n",
			c+1, msg, stale, adapted)
	}
}

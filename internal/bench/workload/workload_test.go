package workload

import (
	"math"
	"testing"

	"neurdb/internal/rel"
)

func TestAvazuRowShape(t *testing.T) {
	gen := NewAvazu(1)
	row := gen.Row()
	if len(row) != AvazuFields+1 {
		t.Fatalf("row arity = %d", len(row))
	}
	for f := 0; f < AvazuFields; f++ {
		id := row[f].AsInt()
		if id < 0 || id >= AvazuVocab {
			t.Fatalf("field %d id out of range: %d", f, id)
		}
	}
	rate := row[AvazuFields].AsFloat()
	if rate < 0 || rate > 1 {
		t.Fatalf("click_rate out of range: %v", rate)
	}
}

func TestAvazuClustersDiffer(t *testing.T) {
	gen := NewAvazu(2)
	meanRate := func(cluster int) float64 {
		gen.SetCluster(cluster)
		var sum float64
		rows := gen.Batch(2000)
		for _, r := range rows {
			sum += r[AvazuFields].AsFloat()
		}
		return sum / float64(len(rows))
	}
	m0 := meanRate(0)
	differs := false
	for c := 1; c < AvazuClusters; c++ {
		if math.Abs(meanRate(c)-m0) > 0.01 {
			differs = true
		}
	}
	if !differs {
		t.Fatal("clusters should have different label distributions")
	}
	if gen.Cluster() != AvazuClusters-1 {
		t.Fatal("cluster accessor wrong")
	}
}

func TestAvazuBatchSourceSwitchesClusters(t *testing.T) {
	gen := NewAvazu(3)
	src := gen.NewBatchSource(100, 10, 250) // switch every 250 samples
	count := 0
	clusters := map[int]bool{}
	for {
		rows, ok := src.Next()
		if !ok {
			break
		}
		if len(rows) != 100 {
			t.Fatal("batch size wrong")
		}
		clusters[gen.Cluster()] = true
		count++
	}
	if count != 10 {
		t.Fatalf("batches = %d", count)
	}
	if len(clusters) < 3 {
		t.Fatalf("expected several clusters, saw %v", clusters)
	}
}

func TestAvazuFeaturizer(t *testing.T) {
	gen := NewAvazu(4)
	rows := gen.Batch(32)
	x, y := AvazuFeaturizer(rows)
	if x.Rows != 32 || x.Cols != AvazuFields || y.Rows != 32 || y.Cols != 1 {
		t.Fatal("featurizer shapes wrong")
	}
	for i := 0; i < x.Rows; i++ {
		for f := 0; f < AvazuFields; f++ {
			id := int(x.At(i, f))
			if id < f*AvazuVocab || id >= (f+1)*AvazuVocab {
				t.Fatalf("global id %d outside field %d slot", id, f)
			}
		}
	}
}

func TestDiabetesGeneratorAndFeaturizer(t *testing.T) {
	gen := NewDiabetes(5)
	rows := gen.Batch(500)
	var pos int
	for _, row := range rows {
		if len(row) != DiabetesFields+1 {
			t.Fatal("arity wrong")
		}
		if row[DiabetesFields].AsInt() == 1 {
			pos++
		}
	}
	// Outcome must be non-degenerate.
	if pos == 0 || pos == len(rows) {
		t.Fatalf("degenerate labels: %d/%d", pos, len(rows))
	}
	x, y := DiabetesFeaturizer(rows)
	if x.Cols != DiabetesFields || y.Cols != 1 {
		t.Fatal("featurizer shapes wrong")
	}
	src := gen.NewSource(50, 3)
	n := 0
	for {
		_, ok := src.Next()
		if !ok {
			break
		}
		n++
	}
	if n != 3 {
		t.Fatalf("source batches = %d", n)
	}
}

func TestStatsWorkloadTables(t *testing.T) {
	sw := NewStats(1, 7)
	defs := sw.Tables()
	if len(defs) != 8 {
		t.Fatalf("tables = %d", len(defs))
	}
	for _, def := range defs {
		rows := sw.Rows(def.Name)
		if len(rows) == 0 {
			t.Fatalf("table %s has no rows", def.Name)
		}
		for _, row := range rows[:10] {
			if len(row) != len(def.Cols) {
				t.Fatalf("table %s arity mismatch", def.Name)
			}
		}
	}
	if len(sw.Queries()) != 8 {
		t.Fatal("expected 8 SPJ queries")
	}
}

func TestStatsDrift(t *testing.T) {
	sw := NewStats(1, 8)
	if sw.DriftInserts("posts", DriftNone) != nil {
		t.Fatal("no-drift should be empty")
	}
	mild := sw.DriftInserts("posts", DriftMild)
	severe := sw.DriftInserts("posts", DriftSevere)
	if len(mild) == 0 || len(severe) <= len(mild) {
		t.Fatalf("drift sizes: mild=%d severe=%d", len(mild), len(severe))
	}
	// Severe drift shifts post scores upward.
	meanScore := func(rows []rel.Row) float64 {
		var s float64
		for _, r := range rows {
			s += r[2].AsFloat()
		}
		return s / float64(len(rows))
	}
	base := meanScore(sw.Rows("posts"))
	drifted := meanScore(severe)
	if drifted <= base+20 {
		t.Fatalf("severe drift should shift scores: base=%.1f drifted=%.1f", base, drifted)
	}
	// Users drift only at severe level.
	if len(sw.DriftInserts("users", DriftMild)) != 0 {
		t.Fatal("users should not drift at mild level")
	}
	if len(sw.DriftInserts("users", DriftSevere)) == 0 {
		t.Fatal("users should drift at severe level")
	}
	// Deletes exist only for severe.
	if sw.DriftDeletes(DriftMild) != nil {
		t.Fatal("mild should have no deletes")
	}
	if len(sw.DriftDeletes(DriftSevere)) == 0 {
		t.Fatal("severe should have deletes")
	}
	// Level names.
	if DriftNone.String() == DriftSevere.String() {
		t.Fatal("level names should differ")
	}
}

package models

import (
	"math/rand"
	"testing"

	"neurdb/internal/nn"
)

func layer(name string, vals ...float64) nn.LayerWeights {
	return nn.LayerWeights{
		Name:   name,
		Shapes: [][2]int{{1, len(vals)}},
		Datas:  [][]float64{vals},
	}
}

func fullModel(a, b, c float64) []nn.LayerWeights {
	return []nn.LayerWeights{layer("l0", a), layer("l1", b), layer("l2", c)}
}

func TestRegisterSaveLoadRoundTrip(t *testing.T) {
	s := NewStore()
	spec := Spec{Arch: "armnet", Fields: 2}
	mid := s.Register("m", spec, 3)
	ts, err := s.SaveFull(mid, fullModel(1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	got, loadedTS, err := s.Load(mid, 0)
	if err != nil {
		t.Fatal(err)
	}
	if loadedTS != ts || len(got) != 3 {
		t.Fatalf("ts=%d layers=%d", loadedTS, len(got))
	}
	if got[0].Datas[0][0] != 1 || got[2].Datas[0][0] != 3 {
		t.Fatal("layer payloads wrong")
	}
	gotSpec, err := s.Spec(mid)
	if err != nil || gotSpec.Fields != 2 {
		t.Fatal("spec lost")
	}
}

func TestPaperLayerSelectionRule(t *testing.T) {
	// Reproduce Fig. 3: M1 v1 = {L1..Ln}@t1; fine-tune Ln at t2. M1,t2 must
	// assemble {L1@t1, ..., Ln@t2}, sharing the untouched prefix.
	s := NewStore()
	mid := s.Register("m", Spec{}, 3)
	t1, _ := s.SaveFull(mid, fullModel(10, 20, 30))
	t2, err := s.SavePartial(mid, map[int]nn.LayerWeights{2: layer("l2", 99)})
	if err != nil {
		t.Fatal(err)
	}
	if t2 <= t1 {
		t.Fatal("timestamps must increase")
	}
	// Version t1: original everywhere.
	v1, _, err := s.Load(mid, t1)
	if err != nil {
		t.Fatal(err)
	}
	if v1[2].Datas[0][0] != 30 {
		t.Fatal("old version must keep old head")
	}
	// Version t2: shared prefix, new head.
	v2, _, err := s.Load(mid, t2)
	if err != nil {
		t.Fatal(err)
	}
	if v2[0].Datas[0][0] != 10 || v2[1].Datas[0][0] != 20 || v2[2].Datas[0][0] != 99 {
		t.Fatalf("layer selection wrong: %v", v2)
	}
	// Versions list is ascending.
	vs := s.Versions(mid)
	if len(vs) != 2 || vs[0] != t1 || vs[1] != t2 {
		t.Fatalf("versions: %v", vs)
	}
	if s.LatestTS(mid) != t2 {
		t.Fatal("latest ts wrong")
	}
}

func TestIncrementalStorageSharing(t *testing.T) {
	s := NewStore()
	mid := s.Register("m", Spec{}, 3)
	big := make([]float64, 10_000)
	fullLayers := []nn.LayerWeights{
		{Name: "emb", Shapes: [][2]int{{1, len(big)}}, Datas: [][]float64{big}},
		layer("mid", 1, 2, 3),
		layer("head", 4),
	}
	if _, err := s.SaveFull(mid, fullLayers); err != nil {
		t.Fatal(err)
	}
	afterFull := s.StorageBytes()
	if _, err := s.SavePartial(mid, map[int]nn.LayerWeights{2: layer("head", 5)}); err != nil {
		t.Fatal(err)
	}
	delta := s.StorageBytes() - afterFull
	if delta <= 0 || delta > afterFull/10 {
		t.Fatalf("incremental delta %d vs full %d — prefix not shared", delta, afterFull)
	}
}

func TestStoreErrorPaths(t *testing.T) {
	s := NewStore()
	if _, _, err := s.Load(99, 0); err == nil {
		t.Fatal("unknown mid should error")
	}
	if _, err := s.SaveFull(99, nil); err == nil {
		t.Fatal("save unknown mid should error")
	}
	if _, err := s.Spec(99); err == nil {
		t.Fatal("spec unknown mid should error")
	}
	mid := s.Register("m", Spec{}, 2)
	if _, err := s.SaveFull(mid, fullModel(1, 2, 3)); err == nil {
		t.Fatal("layer-count mismatch should error")
	}
	if _, err := s.SavePartial(mid, map[int]nn.LayerWeights{0: layer("x", 1)}); err == nil {
		t.Fatal("partial save before full save should error")
	}
	if _, _, err := s.Load(mid, 0); err == nil {
		t.Fatal("load with no versions should error")
	}
	if _, err := s.SaveFull(mid, []nn.LayerWeights{layer("a", 1), layer("b", 2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SavePartial(mid, nil); err == nil {
		t.Fatal("empty partial should error")
	}
	if _, err := s.SavePartial(mid, map[int]nn.LayerWeights{9: layer("x", 1)}); err == nil {
		t.Fatal("out-of-range LID should error")
	}
	if s.Versions(99) != nil || s.LatestTS(99) != 0 {
		t.Fatal("unknown mid versions should be empty")
	}
}

func TestViews(t *testing.T) {
	s := NewStore()
	mid := s.Register("m", Spec{}, 1)
	if err := s.CreateView("v", 99, 0); err == nil {
		t.Fatal("view on unknown mid should error")
	}
	if err := s.CreateView("v", mid, 0); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.FindViewByName("v"); !ok || v.MID != mid || v.Name != "v" {
		t.Fatalf("find failed: %+v %v", v, ok)
	}
	if _, ok := s.FindViewByName("nope"); ok {
		t.Fatal("phantom view")
	}
}

func TestManyVersionsSelection(t *testing.T) {
	s := NewStore()
	mid := s.Register("m", Spec{}, 2)
	r := rand.New(rand.NewSource(1))
	var stamps []uint64
	var headVals []float64
	first, _ := s.SaveFull(mid, []nn.LayerWeights{layer("base", 7), layer("head", 0)})
	stamps = append(stamps, first)
	headVals = append(headVals, 0)
	for i := 1; i <= 20; i++ {
		v := r.Float64()
		ts, err := s.SavePartial(mid, map[int]nn.LayerWeights{1: layer("head", v)})
		if err != nil {
			t.Fatal(err)
		}
		stamps = append(stamps, ts)
		headVals = append(headVals, v)
	}
	// Loading any historical timestamp reconstructs that exact version.
	for i, ts := range stamps {
		got, _, err := s.Load(mid, ts)
		if err != nil {
			t.Fatal(err)
		}
		if got[0].Datas[0][0] != 7 {
			t.Fatal("base layer must always come from the full save")
		}
		if got[1].Datas[0][0] != headVals[i] {
			t.Fatalf("version %d head = %v, want %v", i, got[1].Datas[0][0], headVals[i])
		}
	}
}

package models

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"neurdb/internal/armnet"
	"neurdb/internal/nn"
)

func layer(vals ...float64) nn.LayerWeights {
	return nn.LayerWeights{
		Shapes: [][2]int{{1, len(vals)}},
		Datas:  [][]float64{vals},
	}
}

func fullModel(a, b, c float64) []nn.LayerWeights {
	return []nn.LayerWeights{layer(a), layer(b), layer(c)}
}

func TestRegisterSaveLoadRoundTrip(t *testing.T) {
	s := NewStore()
	spec := Spec{Arch: "armnet", Fields: 2}
	mid := s.Register(spec, 3)
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
	mid := s.Register(Spec{}, 3)
	t1, _ := s.SaveFull(mid, fullModel(10, 20, 30))
	t2, err := s.SavePartial(mid, map[int]nn.LayerWeights{2: layer(99)})
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
	if vs[len(vs)-1] != t2 {
		t.Fatal("latest ts wrong")
	}
}

func TestIncrementalStorageSharing(t *testing.T) {
	s := NewStore()
	mid := s.Register(Spec{}, 3)
	big := make([]float64, 10_000)
	fullLayers := []nn.LayerWeights{
		{Shapes: [][2]int{{1, len(big)}}, Datas: [][]float64{big}},
		layer(1, 2, 3),
		layer(4),
	}
	if _, err := s.SaveFull(mid, fullLayers); err != nil {
		t.Fatal(err)
	}
	afterFull := s.StorageBytes()
	if _, err := s.SavePartial(mid, map[int]nn.LayerWeights{2: layer(5)}); err != nil {
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
	mid := s.Register(Spec{}, 2)
	if _, err := s.SaveFull(mid, fullModel(1, 2, 3)); err == nil {
		t.Fatal("layer-count mismatch should error")
	}
	if _, err := s.SavePartial(mid, map[int]nn.LayerWeights{0: layer(1)}); err == nil {
		t.Fatal("partial save before full save should error")
	}
	if _, _, err := s.Load(mid, 0); err == nil {
		t.Fatal("load with no versions should error")
	}
	if _, err := s.SaveFull(mid, []nn.LayerWeights{layer(1), layer(2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SavePartial(mid, nil); err == nil {
		t.Fatal("empty partial should error")
	}
	if _, err := s.SavePartial(mid, map[int]nn.LayerWeights{9: layer(1)}); err == nil {
		t.Fatal("out-of-range LID should error")
	}
	if s.Versions(99) != nil {
		t.Fatal("unknown mid versions should be empty")
	}
}

func TestViews(t *testing.T) {
	s := NewStore()
	mid := s.Register(Spec{}, 1)
	if err := s.CreateView("v", 99); err == nil {
		t.Fatal("view on unknown mid should error")
	}
	if err := s.CreateView("v", mid); err != nil {
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
	mid := s.Register(Spec{}, 2)
	r := rand.New(rand.NewSource(1))
	var stamps []uint64
	var headVals []float64
	first, _ := s.SaveFull(mid, []nn.LayerWeights{layer(7), layer(0)})
	stamps = append(stamps, first)
	headVals = append(headVals, 0)
	for i := 1; i <= 20; i++ {
		v := r.Float64()
		ts, err := s.SavePartial(mid, map[int]nn.LayerWeights{1: layer(v)})
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

// versionBits renders a loaded model version exactly: every layer's shapes
// and the float64 bits of every weight.
func versionBits(layers []nn.LayerWeights) string {
	out := ""
	for lid, l := range layers {
		out += fmt.Sprintf("%d %v", lid, l.Shapes)
		for _, d := range l.Datas {
			out += " |"
			for _, v := range d {
				out += fmt.Sprintf(" %016x", math.Float64bits(v))
			}
		}
		out += "\n"
	}
	return out
}

// TestStoredVersionsAreImmutable runs a model's life through the store the
// way the AI engine does — save, load, restore, fine-tune the head, save
// again — and checks after every step that each version still loads bit for
// bit as it was saved: the store keeps the weights it is handed and hands
// them out, so a snapshot, restore or optimizer step that aliased them would
// show here.
func TestStoredVersionsAreImmutable(t *testing.T) {
	const fields, vocab = 3, 96
	s := NewStore()
	model := armnet.New(fields, vocab, 8, 32, false, 42)
	mid := s.Register(Spec{}, len(model.Net.Layers))
	saved := map[uint64]string{}
	record := func(ts uint64, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		layers, _, err := s.Load(mid, ts)
		if err != nil {
			t.Fatal(err)
		}
		saved[ts] = versionBits(layers)
	}
	check := func(step string) {
		t.Helper()
		for ts, want := range saved {
			got, _, err := s.Load(mid, ts)
			if err != nil {
				t.Fatal(err)
			}
			if versionBits(got) != want {
				t.Fatalf("after %s: version %d no longer loads as saved", step, ts)
			}
		}
	}
	r := rand.New(rand.NewSource(3))
	step := func(m *armnet.Model, opt *nn.Adam) {
		x, y := nn.NewMatrix(64, fields), nn.NewMatrix(64, 1)
		for i := 0; i < 64; i++ {
			for f := 0; f < fields; f++ {
				x.Set(i, f, float64(f*32+r.Intn(32)))
			}
			y.Set(i, 0, r.Float64())
		}
		m.TrainBatch(x, y, opt)
	}

	opt := nn.NewAdam(0.02)
	record(s.SaveFull(mid, model.Snapshot()))
	step(model, opt) // a model goes on training after its save
	check("a step after the full save")
	for round := 0; round < 4; round++ {
		layers, _, err := s.Load(mid, 0)
		if err != nil {
			t.Fatal(err)
		}
		m := armnet.New(fields, vocab, 8, 32, false, 42)
		if err := m.Restore(layers); err != nil {
			t.Fatal(err)
		}
		check("restore")
		m.Freeze(armnet.FreezePrefixLayers)
		opt := nn.NewAdam(0.02)
		for i := 0; i < 5; i++ {
			step(m, opt)
		}
		check("fine-tune")
		snap := m.Snapshot()
		updated := map[int]nn.LayerWeights{}
		for lid := armnet.FreezePrefixLayers; lid < len(snap); lid++ {
			if len(snap[lid].Shapes) > 0 {
				updated[lid] = snap[lid]
			}
		}
		record(s.SavePartial(mid, updated))
		step(m, opt)
		check("a step after the save")
	}
	if len(s.Versions(mid)) != 5 {
		t.Fatalf("versions %v, want 5", s.Versions(mid))
	}
}

// TestRefusedSavePartialStoresNothing is the regression test for a refused
// incremental save that stored the layers it met before the out-of-range
// LID: they then served the next version. Map order decides which LID a save
// meets first, so the test repeats until both orders have surely run.
func TestRefusedSavePartialStoresNothing(t *testing.T) {
	for trial := 0; trial < 64; trial++ {
		s := NewStore()
		mid := s.Register(Spec{}, 3)
		if _, err := s.SaveFull(mid, fullModel(10, 20, 30)); err != nil {
			t.Fatal(err)
		}
		bytes := s.StorageBytes()
		if _, err := s.SavePartial(mid, map[int]nn.LayerWeights{1: layer(11), 9: layer(99)}); err == nil {
			t.Fatal("out-of-range LID should error")
		}
		if s.StorageBytes() != bytes || len(s.Versions(mid)) != 1 {
			t.Fatalf("trial %d: refused save left %d bytes (was %d) and versions %v", trial, s.StorageBytes(), bytes, s.Versions(mid))
		}
		if _, err := s.SavePartial(mid, map[int]nn.LayerWeights{2: layer(33)}); err != nil {
			t.Fatal(err)
		}
		got, _, err := s.Load(mid, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got[0].Datas[0][0] != 10 || got[1].Datas[0][0] != 20 || got[2].Datas[0][0] != 33 {
			t.Fatalf("trial %d: latest version is %v, %v, %v; want 10, 20, 33", trial, got[0].Datas, got[1].Datas, got[2].Datas)
		}
	}
}

// Package models implements the paper's layered model storage and model
// manager (Fig. 3): a model is stored as per-layer versions keyed by (MID,
// LID, timestamp), each kept in process as the nn.LayerWeights its save
// handed in. Reconstructing model M_{i,t} picks, for every layer
// slot, the newest version with timestamp ≤ t — so an incremental update
// that fine-tuned only the tail persists only those layers, and consecutive
// versions share the frozen prefix. A model view gives tasks a stable name
// for a model's latest version.
package models

import (
	"fmt"
	"iter"
	"maps"
	"slices"
	"sort"
	"sync"

	"neurdb/internal/nn"
)

// Spec describes a model architecture: a task rebuilds the model from it
// alone.
type Spec struct {
	Arch           string // "armnet" | "mlp"
	Fields         int    // categorical fields per sample
	Vocab          int    // embedding vocabulary size
	EmbDim         int
	Hidden         int
	Classification bool
	Seed           int64
	// Features names the table columns behind the fields, in field order, of
	// a model bound to a table (PREDICT's): what a later statement must list
	// to reuse the model.
	Features []string
}

// layerVersion is one stored snapshot of one layer.
type layerVersion struct {
	ts uint64
	w  nn.LayerWeights
}

// model is the models-table entry of one MID.
type model struct {
	spec     Spec
	layers   [][]layerVersion // LID → versions, ts ascending
	versions []uint64         // creation timestamps of full model versions
}

// Store is the model storage engine.
type Store struct {
	mu     sync.RWMutex
	clock  uint64
	models []*model // MID − 1 → model
	views  map[string]View
	bytes  int64
}

// View is a named logical binding to a model's latest version.
type View struct {
	Name string
	MID  int
}

// NewStore creates an empty model store.
func NewStore() *Store {
	return &Store{views: make(map[string]View)}
}

// Register creates a model entry and returns its MID.
func (s *Store) Register(spec Spec, numLayers int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.models = append(s.models, &model{spec: spec, layers: make([][]layerVersion, numLayers)})
	return len(s.models)
}

// model resolves a MID; the caller holds mu.
func (s *Store) model(mid int) (*model, error) {
	if mid < 1 || mid > len(s.models) {
		return nil, fmt.Errorf("models: unknown MID %d", mid)
	}
	return s.models[mid-1], nil
}

// Spec returns the architecture spec of a model.
func (s *Store) Spec(mid int) (Spec, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, err := s.model(mid)
	if err != nil {
		return Spec{}, err
	}
	return m.spec, nil
}

// SaveFull persists every layer at a fresh timestamp (initial training or
// full retraining) and returns the new version timestamp. The store keeps
// the weights it is handed: the caller must not write them afterwards.
func (s *Store) SaveFull(mid int, layers []nn.LayerWeights) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, err := s.model(mid)
	if err != nil {
		return 0, err
	}
	if len(layers) != len(m.layers) {
		return 0, fmt.Errorf("models: MID %d expects %d layers, got %d", mid, len(m.layers), len(layers))
	}
	return s.save(m, slices.All(layers)), nil
}

// SavePartial persists only the given layers at a fresh timestamp — the
// incremental update path: frozen layers are shared with prior versions.
// Like SaveFull it keeps the weights it is handed, and a save it refuses
// stores nothing.
func (s *Store) SavePartial(mid int, updated map[int]nn.LayerWeights) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, err := s.model(mid)
	if err != nil {
		return 0, err
	}
	if len(m.versions) == 0 {
		return 0, fmt.Errorf("models: MID %d has no full version to update incrementally", mid)
	}
	if len(updated) == 0 {
		return 0, fmt.Errorf("models: incremental update with no layers")
	}
	for lid := range updated {
		if lid < 0 || lid >= len(m.layers) {
			return 0, fmt.Errorf("models: LID %d out of range for MID %d", lid, mid)
		}
	}
	return s.save(m, maps.All(updated)), nil
}

// save stores every (LID, weights) pair of layers as a new version of m and
// returns its timestamp; the caller holds mu and has validated the save.
func (s *Store) save(m *model, layers iter.Seq2[int, nn.LayerWeights]) uint64 {
	s.clock++
	for lid, lw := range layers {
		m.layers[lid] = append(m.layers[lid], layerVersion{ts: s.clock, w: lw})
		for _, d := range lw.Datas {
			s.bytes += 8 * int64(len(d))
		}
	}
	m.versions = append(m.versions, s.clock)
	return s.clock
}

// Load reconstructs M_{mid,ts}: for each layer slot the newest stored
// version with timestamp ≤ ts (the paper's layer-selection rule). ts = 0
// loads the latest version.
//
// The weights returned are the stored versions themselves, shared with the
// store and with every other Load. That is safe because a stored version is
// never written after its save: callers only read them, and a model takes
// them through nn.RestoreSequential, which copies them into its own
// parameters.
func (s *Store) Load(mid int, ts uint64) ([]nn.LayerWeights, uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, err := s.model(mid)
	if err != nil {
		return nil, 0, err
	}
	if len(m.versions) == 0 {
		return nil, 0, fmt.Errorf("models: MID %d has no stored versions", mid)
	}
	if ts == 0 {
		ts = m.versions[len(m.versions)-1]
	}
	out := make([]nn.LayerWeights, len(m.layers))
	for lid, versions := range m.layers {
		// Last version with ts' <= ts.
		i := sort.Search(len(versions), func(i int) bool { return versions[i].ts > ts }) - 1
		if i < 0 {
			return nil, 0, fmt.Errorf("models: MID %d layer %d has no version ≤ %d", mid, lid, ts)
		}
		out[lid] = versions[i].w
	}
	return out, ts, nil
}

// Versions returns the version timestamps of a model, ascending. The
// benchmark's ai_predict counts a run's fine-tunes with it.
//
//neurdb:reserved direction 2
func (s *Store) Versions(mid int) []uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, err := s.model(mid)
	if err != nil {
		return nil
	}
	return append([]uint64(nil), m.versions...)
}

// StorageBytes reports the bytes of every stored weight, 8 per float64 — the
// metric that shows incremental updates sharing frozen layers instead of
// duplicating them. Fig. 6c's storage ratio reads it until models are rows
// whose size the storage layer reports.
//
//neurdb:reserved direction 14
func (s *Store) StorageBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// CreateView binds a name to a model; the view tracks its latest version.
func (s *Store) CreateView(name string, mid int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.model(mid); err != nil {
		return err
	}
	s.views[name] = View{Name: name, MID: mid}
	return nil
}

// FindViewByName reports whether a view exists (used by PREDICT to decide
// between fresh training and reuse + fine-tuning).
func (s *Store) FindViewByName(name string) (View, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.views[name]
	return v, ok
}

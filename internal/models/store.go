// Package models implements the paper's layered model storage and model
// manager (Fig. 3): models are stored as per-layer versioned blobs keyed by
// (MID, LID, timestamp). Reconstructing model M_{i,t} picks, for every layer
// slot, the newest version with timestamp ≤ t — so an incremental update
// that fine-tuned only the tail persists only those layers, and consecutive
// versions share the frozen prefix. Model views give tasks stable names
// bound to (MID, optional pinned timestamp).
package models

import (
	"fmt"
	"sort"
	"sync"

	"neurdb/internal/nn"
)

// Spec describes a model architecture so a runtime can rebuild it from the
// handshake alone.
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
	ts   uint64
	blob []byte
}

// meta is the models-table entry.
type meta struct {
	mid       int
	name      string
	spec      Spec
	numLayers int
	versions  []uint64 // creation timestamps of full model versions
}

// Store is the model storage engine.
type Store struct {
	mu     sync.RWMutex
	clock  uint64
	nextID int
	byID   map[int]*meta
	layers map[int]map[int][]layerVersion // MID → LID → versions (ts asc)
	views  map[string]View
	bytes  int64
}

// View is a named logical binding to a model version.
type View struct {
	Name string
	MID  int
	// TS pins the view to a version; 0 means "latest".
	TS uint64
}

// NewStore creates an empty model store.
func NewStore() *Store {
	return &Store{
		byID:   make(map[int]*meta),
		layers: make(map[int]map[int][]layerVersion),
		views:  make(map[string]View),
	}
}

// Register creates a model entry and returns its MID.
func (s *Store) Register(name string, spec Spec, numLayers int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	mid := s.nextID
	s.byID[mid] = &meta{mid: mid, name: name, spec: spec, numLayers: numLayers}
	s.layers[mid] = make(map[int][]layerVersion)
	return mid
}

// Spec returns the architecture spec of a model.
func (s *Store) Spec(mid int) (Spec, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.byID[mid]
	if !ok {
		return Spec{}, fmt.Errorf("models: unknown MID %d", mid)
	}
	return m.spec, nil
}

// SaveFull persists every layer at a fresh timestamp (initial training or
// full retraining) and returns the new version timestamp.
func (s *Store) SaveFull(mid int, layers []nn.LayerWeights) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.byID[mid]
	if !ok {
		return 0, fmt.Errorf("models: unknown MID %d", mid)
	}
	if len(layers) != m.numLayers {
		return 0, fmt.Errorf("models: MID %d expects %d layers, got %d", mid, m.numLayers, len(layers))
	}
	s.clock++
	ts := s.clock
	for lid, lw := range layers {
		blob, err := nn.EncodeWeights(lw)
		if err != nil {
			return 0, err
		}
		s.layers[mid][lid] = append(s.layers[mid][lid], layerVersion{ts: ts, blob: blob})
		s.bytes += int64(len(blob))
	}
	m.versions = append(m.versions, ts)
	return ts, nil
}

// SavePartial persists only the given layers at a fresh timestamp — the
// incremental update path: frozen layers are shared with prior versions.
func (s *Store) SavePartial(mid int, updated map[int]nn.LayerWeights) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.byID[mid]
	if !ok {
		return 0, fmt.Errorf("models: unknown MID %d", mid)
	}
	if len(m.versions) == 0 {
		return 0, fmt.Errorf("models: MID %d has no full version to update incrementally", mid)
	}
	if len(updated) == 0 {
		return 0, fmt.Errorf("models: incremental update with no layers")
	}
	s.clock++
	ts := s.clock
	for lid, lw := range updated {
		if lid < 0 || lid >= m.numLayers {
			return 0, fmt.Errorf("models: LID %d out of range for MID %d", lid, mid)
		}
		blob, err := nn.EncodeWeights(lw)
		if err != nil {
			return 0, err
		}
		s.layers[mid][lid] = append(s.layers[mid][lid], layerVersion{ts: ts, blob: blob})
		s.bytes += int64(len(blob))
	}
	m.versions = append(m.versions, ts)
	return ts, nil
}

// Load reconstructs M_{mid,ts}: for each layer slot the newest stored
// version with timestamp ≤ ts (the paper's layer-selection rule). ts = 0
// loads the latest version.
func (s *Store) Load(mid int, ts uint64) ([]nn.LayerWeights, uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.byID[mid]
	if !ok {
		return nil, 0, fmt.Errorf("models: unknown MID %d", mid)
	}
	if len(m.versions) == 0 {
		return nil, 0, fmt.Errorf("models: MID %d has no stored versions", mid)
	}
	if ts == 0 {
		ts = m.versions[len(m.versions)-1]
	}
	out := make([]nn.LayerWeights, m.numLayers)
	for lid := 0; lid < m.numLayers; lid++ {
		versions := s.layers[mid][lid]
		// Last version with ts' <= ts.
		i := sort.Search(len(versions), func(i int) bool { return versions[i].ts > ts }) - 1
		if i < 0 {
			return nil, 0, fmt.Errorf("models: MID %d layer %d has no version ≤ %d", mid, lid, ts)
		}
		lw, err := nn.DecodeWeights(versions[i].blob)
		if err != nil {
			return nil, 0, err
		}
		out[lid] = lw
	}
	return out, ts, nil
}

// Versions returns the version timestamps of a model, ascending.
func (s *Store) Versions(mid int) []uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.byID[mid]
	if !ok {
		return nil
	}
	return append([]uint64(nil), m.versions...)
}

// LatestTS returns the newest version timestamp (0 if none).
func (s *Store) LatestTS(mid int) uint64 {
	v := s.Versions(mid)
	if len(v) == 0 {
		return 0
	}
	return v[len(v)-1]
}

// StorageBytes reports total stored blob bytes — the metric that shows
// incremental updates sharing frozen layers instead of duplicating them.
func (s *Store) StorageBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// CreateView binds a name to (mid, ts); ts = 0 tracks the latest version.
func (s *Store) CreateView(name string, mid int, ts uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byID[mid]; !ok {
		return fmt.Errorf("models: unknown MID %d", mid)
	}
	s.views[name] = View{Name: name, MID: mid, TS: ts}
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

package storage

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
)

// StoredModel is the pipeline currently stored under a name. Bytes is the
// serialized pipeline (the engine above decides the encoding); Hash is its
// content hash, which keys inference sessions, names the checkpoint blob
// and is checked on recovery.
type StoredModel struct {
	Name  string
	Bytes []byte
	Hash  string
}

// ModelStore maps each model name to its current pipeline. A Put replaces
// the pipeline whole; superseded ones are not kept.
type ModelStore struct {
	mu     sync.RWMutex
	models map[string]*StoredModel
	// d logs puts when the store is durable; nil in memory. Set once, as
	// for Catalog.d.
	d *Durable
}

// NewModelStore returns an empty store.
func NewModelStore() *ModelStore {
	return &ModelStore{models: make(map[string]*StoredModel)}
}

// Put stores data as the named model's pipeline and returns the one it
// replaced (nil on a first store). Concurrent puts to one name form a
// chain: each returns the pipeline the previous one stored. A durable
// store logs the put — the bytes ride in the WAL until a checkpoint
// writes them out as a content-addressed blob — under the catalog's
// ddlMu, so replay rebuilds the same chain.
func (s *ModelStore) Put(name string, data []byte) (replaced *StoredModel, err error) {
	h := sha256.Sum256(data)
	m := &StoredModel{Name: name, Bytes: data, Hash: hex.EncodeToString(h[:])}
	if s.d != nil {
		s.d.catalog.ddlMu.Lock()
		defer s.d.catalog.ddlMu.Unlock()
		rec := modelPutsRec{Puts: []modelPutRec{{Name: m.Name, Bytes: m.Bytes, Hash: m.Hash}}}
		if err := s.d.logJSON(recModelPut, rec); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	k := key(name)
	replaced, s.models[k] = s.models[k], m
	return replaced, nil
}

// Latest returns the named model's current pipeline.
func (s *ModelStore) Latest(name string) (*StoredModel, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m := s.models[key(name)]
	if m == nil {
		return nil, fmt.Errorf("storage: model %q not found", name)
	}
	return m, nil
}

// snapshotModels returns every stored model, sorted by name, for the
// checkpoint manifest.
func (s *ModelStore) snapshotModels() []*StoredModel {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*StoredModel, 0, len(s.models))
	for _, m := range s.models {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return key(out[i].Name) < key(out[j].Name) })
	return out
}

// Package stmtreg is the front-end-agnostic server-side prepared
// statement registry. It used to live inside the HTTP server as a
// private map; hoisting it out lets pg prepared statements/portals and
// HTTP /stmt/{id} share one capacity bound, one stats surface and one
// re-prepare-on-catalog-bump behaviour (the raven.Stmt inside each
// entry transparently re-prepares after DDL or model stores).
//
// Entries are owned: each front end registers under an owner key (the
// HTTP server uses ""; pgwire uses one key per connection) so a closing
// pg connection can drop exactly its statements while HTTP statements —
// which outlive any one connection — stay. The capacity bound spans all
// owners: a flood of pg Parse messages and a flood of POST /prepare
// calls drain the same budget, and both are refused with the same
// ErrStmtLimit once it is gone.
package stmtreg

import (
	"fmt"
	"sync"

	"raven"
	"raven/internal/server/reqopt"
)

// Entry is one registered statement: the compiled Stmt plus the
// request-option layer it was registered under (the per-statement
// tenant default — executions inherit it unless the request overrides;
// see reqopt's resolution order).
type Entry struct {
	Stmt *raven.Stmt
	Opts reqopt.Options
}

// Registry is a bounded, owned id→Entry map. Safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	max      int
	entries  map[string]*Entry
	owners   map[string]map[string]struct{} // owner → ids
	nextID   uint64
	prepares uint64
}

// DefaultMax is the registry capacity when New is given n <= 0.
const DefaultMax = 1024

// New builds a registry holding at most max statements.
func New(max int) *Registry {
	if max <= 0 {
		max = DefaultMax
	}
	return &Registry{
		max:     max,
		entries: make(map[string]*Entry),
		owners:  make(map[string]map[string]struct{}),
	}
}

// Cap returns the capacity bound.
func (r *Registry) Cap() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.max
}

// Len returns the number of registered statements across all owners.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Prepares returns the cumulative successful registrations.
func (r *Registry) Prepares() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.prepares
}

// Full reports whether the registry is at capacity — front ends check
// it before compiling, so a full registry does not cost a parse/bind/
// cross-optimize per rejected request. (Re-checked inside Register:
// concurrent prepares racing past this gate may each compile, but the
// registry never exceeds the cap.)
func (r *Registry) Full() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries) >= r.max
}

// Register stores e under a fresh id for owner, or fails with
// reqopt.ErrStmtLimit at capacity.
func (r *Registry) Register(owner string, e *Entry) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.entries) >= r.max {
		return "", reqopt.ErrStmtLimit
	}
	r.nextID++
	id := fmt.Sprintf("s%d", r.nextID)
	r.entries[id] = e
	ids := r.owners[owner]
	if ids == nil {
		ids = make(map[string]struct{})
		r.owners[owner] = ids
	}
	ids[id] = struct{}{}
	r.prepares++
	return id, nil
}

// Get looks an entry up, failing with reqopt.ErrStmtNotFound.
func (r *Registry) Get(id string) (*Entry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok {
		return nil, reqopt.ErrStmtNotFound
	}
	return e, nil
}

// Remove deletes one statement (any owner's — HTTP DELETE takes ids,
// not owners), failing with reqopt.ErrStmtNotFound if absent.
func (r *Registry) Remove(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[id]; !ok {
		return reqopt.ErrStmtNotFound
	}
	delete(r.entries, id)
	for owner, ids := range r.owners {
		if _, ok := ids[id]; ok {
			delete(ids, id)
			if len(ids) == 0 {
				delete(r.owners, owner)
			}
			break
		}
	}
	return nil
}

// RemoveOwner drops every statement registered under owner (a closing
// pg connection) and returns how many were dropped.
func (r *Registry) RemoveOwner(owner string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := r.owners[owner]
	for id := range ids {
		delete(r.entries, id)
	}
	delete(r.owners, owner)
	return len(ids)
}

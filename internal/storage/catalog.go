package storage

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Catalog names tables and the model store. It is the single source of
// truth the binder and the cross optimizer consult. With a durable
// backend attached, every schema mutation is WAL-logged before it
// applies; without one (the default) mutations apply directly in memory.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
	Models *ModelStore
	// uniqueKeys records columns known to be unique per table (primary
	// keys). The relational optimizer uses this for join elimination.
	uniqueKeys map[string]map[string]bool
	// version counts schema-affecting mutations (DDL, unique-key changes,
	// model stores). Prepared templates and cached results record it, so
	// any change that could invalidate a bound plan forces a recompile.
	version atomic.Uint64

	// backend, when non-nil, intercepts mutations for durability. Set
	// once via SetBackend before the catalog sees concurrent use.
	backend Backend
}

// NewCatalog returns an empty catalog with a fresh model store.
func NewCatalog() *Catalog {
	return &Catalog{
		tables:     make(map[string]*Table),
		Models:     NewModelStore(),
		uniqueKeys: make(map[string]map[string]bool),
	}
}

func key(name string) string { return strings.ToLower(name) }

// SetBackend attaches a durability backend to the catalog, its model
// store, and every already-registered table. Recovery calls it after
// rebuilding state (so replay never re-logs); it must happen before the
// catalog sees concurrent use.
func (c *Catalog) SetBackend(b Backend) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.backend = b
	for _, t := range c.tables {
		t.backend = b
	}
	c.Models.setBackend(b)
}

// Version returns the current catalog version. It changes whenever a
// table is added or dropped, a unique key is declared, or BumpVersion is
// called (the engine does so on model stores).
func (c *Catalog) Version() uint64 { return c.version.Load() }

// BumpVersion invalidates plans compiled against the previous catalog
// state and returns the new version.
func (c *Catalog) BumpVersion() uint64 { return c.version.Add(1) }

// AddTable registers a table; it fails if the name is taken.
func (c *Catalog) AddTable(t *Table) error {
	if c.backend != nil {
		return c.backend.CreateTable(c, t)
	}
	return c.addTableLocal(t)
}

func (c *Catalog) addTableLocal(t *Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(t.Name)
	if _, ok := c.tables[k]; ok {
		return fmt.Errorf("storage: table %q already exists", t.Name)
	}
	c.tables[k] = t
	c.version.Add(1)
	return nil
}

// DropTable removes a table by name.
func (c *Catalog) DropTable(name string) error {
	if c.backend != nil {
		return c.backend.DropTable(c, name)
	}
	return c.dropTableLocal(name)
}

func (c *Catalog) dropTableLocal(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(name)
	if _, ok := c.tables[k]; !ok {
		return fmt.Errorf("storage: table %q does not exist", name)
	}
	delete(c.tables, k)
	delete(c.uniqueKeys, k)
	c.version.Add(1)
	return nil
}

// Table looks a table up by (case-insensitive) name.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[key(name)]
	if !ok {
		return nil, fmt.Errorf("storage: table %q does not exist", name)
	}
	return t, nil
}

// HasTable reports whether a table with the given name exists.
func (c *Catalog) HasTable(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.tables[key(name)]
	return ok
}

// TableNames returns all table names, sorted.
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}

// SetUniqueKey declares that column col of table is unique (e.g. a primary
// key). Join elimination relies on this. The error is always nil for
// in-memory catalogs; durable ones can fail to log.
func (c *Catalog) SetUniqueKey(table, col string) error {
	if c.backend != nil {
		return c.backend.SetUniqueKey(c, table, col)
	}
	c.setUniqueKeyLocal(table, col)
	return nil
}

func (c *Catalog) setUniqueKeyLocal(table, col string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(table)
	if c.uniqueKeys[k] == nil {
		c.uniqueKeys[k] = make(map[string]bool)
	}
	c.uniqueKeys[k][key(col)] = true
	c.version.Add(1)
}

// IsUniqueKey reports whether col is a declared unique key of table.
func (c *Catalog) IsUniqueKey(table, col string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.uniqueKeys[key(table)][key(col)]
}

// UniqueKeys returns the declared unique-key columns of table, sorted —
// what the durable manifest records.
func (c *Catalog) UniqueKeys(table string) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cols := c.uniqueKeys[key(table)]
	out := make([]string, 0, len(cols))
	for col := range cols {
		out = append(out, col)
	}
	sort.Strings(out)
	return out
}

package storage

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Catalog names tables and the model store. It is the single source of
// truth the binder and the cross optimizer consult. A durable catalog
// WAL-logs every schema mutation before it applies; an in-memory one (the
// default) applies it directly.
type Catalog struct {
	// ddlMu serializes schema mutations (DDL, unique keys, durable model
	// puts) against each other and against checkpoints, so the log order
	// is the apply order. Lock order everywhere: ddlMu -> table appendMu
	// (sorted) -> Durable.rotateMu -> catalog/table locks.
	ddlMu  sync.Mutex
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

	// d logs mutations when the catalog is durable; nil in memory.
	// OpenDurable sets it once, after recovery has rebuilt the catalog
	// through these same methods, so replay never logs.
	d *Durable
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

// errNoTable is the error every lookup of, or write to, a table that is
// not live gets.
func errNoTable(name string) error { return fmt.Errorf("storage: table %q does not exist", name) }

// Version returns the current catalog version. It changes whenever a
// table is added or dropped, a unique key is declared, or BumpVersion is
// called (the engine does so on model stores).
func (c *Catalog) Version() uint64 { return c.version.Load() }

// BumpVersion invalidates plans compiled against the previous catalog
// state and returns the new version.
func (c *Catalog) BumpVersion() uint64 { return c.version.Add(1) }

// AddTable registers a table; it fails if the name is taken.
func (c *Catalog) AddTable(t *Table) error {
	c.ddlMu.Lock()
	defer c.ddlMu.Unlock()
	if c.HasTable(t.Name) {
		return fmt.Errorf("storage: table %q already exists", t.Name)
	}
	if err := c.d.logJSON(recCreateTable, createTableRec{Name: t.Name, Cols: schemaCols(t.schema)}); err != nil {
		return err
	}
	t.d = c.d
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tables[key(t.Name)] = t
	c.version.Add(1)
	return nil
}

// DropTable removes a table by name and marks its *Table dropped under
// the table's appendMu and mu, so a handle taken before the drop takes
// no further write. A scan already holding a snapshot finishes on it; a
// durable table's segment files go at the next checkpoint's sweep.
func (c *Catalog) DropTable(name string) error {
	c.ddlMu.Lock()
	defer c.ddlMu.Unlock()
	t, err := c.Table(name)
	if err != nil {
		return err
	}
	t.appendMu.Lock()
	defer t.appendMu.Unlock()
	if err := c.d.logJSON(recDropTable, dropTableRec{Name: name}); err != nil {
		return err
	}
	t.mu.Lock()
	t.dropped = true
	t.mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.tables, key(name))
	delete(c.uniqueKeys, key(name))
	c.version.Add(1)
	return nil
}

// Table looks a table up by (case-insensitive) name.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[key(name)]
	if !ok {
		return nil, errNoTable(name)
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
	c.ddlMu.Lock()
	defer c.ddlMu.Unlock()
	if err := c.d.logJSON(recUniqueKey, uniqueKeyRec{Table: table, Col: col}); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(table)
	if c.uniqueKeys[k] == nil {
		c.uniqueKeys[k] = make(map[string]bool)
	}
	c.uniqueKeys[k][key(col)] = true
	c.version.Add(1)
	return nil
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

package storage

import (
	"raven/internal/types"
)

// Backend persists catalog and table mutations and model puts. A nil
// backend is the in-memory default: every mutation applies directly and
// nothing touches disk — exactly the pre-durability engine. With a
// backend attached (SetBackend), mutations route through it so they are
// logged to the WAL before they become visible, and table tails seal
// into columnar segment files once they grow past the configured row
// count.
//
// The engine stays agnostic of the backend: it calls the same
// Catalog/Table/ModelStore methods either way, mirroring the pluggable
// storage-backend layout of whereabouts' pkg/storage.
type Backend interface {
	// Append logs batch b and applies it to t, sealing the tail into a
	// segment when it crosses the threshold.
	Append(t *Table, b *types.Batch) error
	// CreateTable logs and registers a new table.
	CreateTable(c *Catalog, t *Table) error
	// DropTable logs and removes a table.
	DropTable(c *Catalog, name string) error
	// SetUniqueKey logs and declares a unique key.
	SetUniqueKey(c *Catalog, table, col string) error
	// PutModel logs one model put and applies it to s, returning the
	// pipeline it replaced.
	PutModel(s *ModelStore, m *StoredModel) (replaced *StoredModel, err error)
}

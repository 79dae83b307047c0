package storage

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"raven/internal/segment"
	"raven/internal/types"
	"raven/internal/wal"
)

// Durable is the on-disk storage backend: a write-ahead log for every
// mutation plus immutable columnar segment files sealed off the table
// tails. Layout under the data directory:
//
//	wal/wal-%08d.log     the record log, rotated at each checkpoint
//	seg/<table>-%08d.seg sealed columnar segments (see internal/segment)
//	models/<hash>.bin    each model's current pipeline, named by its
//	                     content hash (checkpoint only)
//	MANIFEST             JSON snapshot: schemas, segment lists, models,
//	                     and the WAL sequence replay starts from
//
// Writes append a WAL record before they apply in memory; once a table
// tail reaches SegmentRows rows it is sealed into a segment file (fsynced
// before the SEAL record is logged, so a logged seal always has its
// file). A checkpoint seals every tail, folds small neighboring segments
// together, rotates the WAL, atomically replaces the MANIFEST, and sweeps
// every file the new MANIFEST does not name: old WAL files, replaced and
// dropped segments, superseded model blobs.
//
// Recovery (OpenDurable) is the reverse: load the MANIFEST, verify and
// attach every referenced segment (corrupt ones are quarantined with a
// clear error), then replay the WAL tail — tolerating a torn final
// record — and sweep every file neither the MANIFEST nor the replayed
// log names, so a second crash recovers the same state.
type Durable struct {
	dir  string
	opts DurableOptions

	catalog *Catalog

	// ddlMu serializes schema mutations (DDL, unique keys, model puts)
	// against each other and against checkpoints. Lock order everywhere:
	// ddlMu -> table appendMu (sorted) -> rotateMu -> catalog/table locks.
	ddlMu sync.Mutex

	// rotateMu protects d.log against checkpoint rotation: appenders hold
	// it shared across the WAL append AND the memory apply, so a
	// checkpoint (holding it exclusively) never snapshots state that is
	// behind the log it is about to retire.
	rotateMu sync.RWMutex
	log      *wal.Log
	walSeq   uint64

	segSeq      atomic.Uint64
	walRecords  atomic.Uint64 // replayed at recovery + appended since
	checkpoints atomic.Uint64
	lastRec     atomic.Int64  // last recovery duration, nanoseconds
	segsScanned atomic.Uint64 // sealed segments scans read (Table.Spans)
	segsPruned  atomic.Uint64 // ... and left out by their footer bounds

	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// DurableOptions tunes the durable backend; zero values take defaults.
type DurableOptions struct {
	// Fsync is the WAL sync policy (default FsyncAlways).
	Fsync wal.Policy
	// SegmentRows seals a table tail into a segment once it reaches this
	// many rows (default 65536).
	SegmentRows int
}

const (
	// checkpointWalBytes triggers a background checkpoint once the live
	// WAL exceeds this size.
	checkpointWalBytes = 64 << 20
	// checkpointPoll is how often the background loop looks at the WAL
	// size.
	checkpointPoll = 2 * time.Second
)

func (o *DurableOptions) defaults() {
	if o.SegmentRows <= 0 {
		o.SegmentRows = 1 << 16
	}
}

// DurableStats is the storage section of engine stats.
type DurableStats struct {
	WalBytes       int64  `json:"wal_bytes"`
	WalRecords     uint64 `json:"wal_records"`
	Segments       int    `json:"segments"`
	SealedRows     int    `json:"sealed_rows"`
	LastRecoveryMs int64  `json:"last_recovery_ms"`
	Checkpoints    uint64 `json:"checkpoints"`
	Fsync          string `json:"fsync"`
	// SegmentsScanned and SegmentsPruned count the sealed segments table
	// scans read and skipped by footer min/max, once per scan opened.
	SegmentsScanned uint64 `json:"segments_scanned"`
	SegmentsPruned  uint64 `json:"segments_pruned"`
}

// WAL record types.
const (
	recAppend      byte = 1
	recCreateTable byte = 2
	recDropTable   byte = 3
	recUniqueKey   byte = 4
	recModelPut    byte = 5
	recSeal        byte = 6
)

// JSON payloads for the non-append record types and the manifest. Batch
// appends use the binary segment codec instead (see encodeAppend).
type (
	createTableRec struct {
		Name string        `json:"name"`
		Cols []manifestCol `json:"cols"`
	}
	dropTableRec struct {
		Name string `json:"name"`
	}
	uniqueKeyRec struct {
		Table string `json:"table"`
		Col   string `json:"col"`
	}
	// modelPutsRec is one model put; older logs also carry format and
	// meta fields, which replay ignores.
	modelPutsRec struct {
		Puts []modelPutRec `json:"puts"`
	}
	modelPutRec struct {
		Name  string `json:"name"`
		Bytes []byte `json:"bytes"` // base64 via encoding/json
		Hash  string `json:"hash"`
	}
	sealRec struct {
		Table string `json:"table"`
		File  string `json:"file"`
		Rows  int    `json:"rows"`
	}

	manifestCol struct {
		Name string `json:"name"`
		Type int    `json:"type"`
	}
	manifestSeg struct {
		File string `json:"file"`
		Rows int    `json:"rows"`
	}
	manifestTable struct {
		Name     string        `json:"name"`
		Cols     []manifestCol `json:"cols"`
		Unique   []string      `json:"unique,omitempty"`
		Segments []manifestSeg `json:"segments,omitempty"`
	}
	// manifestModel names one model's blob. Older manifests list every
	// version of a name, oldest first, with version, format, created_at
	// and meta fields; recovery ignores those, and the last entry stands.
	manifestModel struct {
		Name string `json:"name"`
		Hash string `json:"hash"`
		File string `json:"file"`
	}
	manifestFile struct {
		WalSeq uint64          `json:"wal_seq"`
		SegSeq uint64          `json:"seg_seq"`
		Tables []manifestTable `json:"tables,omitempty"`
		Models []manifestModel `json:"models,omitempty"`
	}
)

// OpenDurable opens (creating if needed) the data directory, recovers
// the catalog it describes, attaches the durable backend, and starts the
// background checkpointer. The returned catalog reflects every committed
// write that reached the log before the last shutdown or crash.
func OpenDurable(dir string, opts DurableOptions) (*Catalog, *Durable, error) {
	opts.defaults()
	for _, sub := range []string{"", "wal", "seg", "models"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, nil, fmt.Errorf("storage: create data dir: %w", err)
		}
	}
	d := &Durable{
		dir:  dir,
		opts: opts,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	start := time.Now()
	c, err := d.recover()
	if err != nil {
		return nil, nil, err
	}
	d.catalog = c
	c.SetBackend(d)
	d.lastRec.Store(int64(time.Since(start)))
	go d.checkpointLoop()
	return c, d, nil
}

func (d *Durable) walPath(seq uint64) string {
	return filepath.Join(d.dir, "wal", fmt.Sprintf("wal-%08d.log", seq))
}

func (d *Durable) walOpts() wal.Options {
	return wal.Options{Policy: d.opts.Fsync}
}

// sanitizeName maps a table name onto a filesystem-safe segment file
// prefix. Collisions are harmless: the sequence number keeps file names
// unique, and the manifest/SEAL records carry the real table name.
func sanitizeName(name string) string {
	s := strings.ToLower(name)
	return strings.Map(func(r rune) rune {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '_' {
			return r
		}
		return '_'
	}, s)
}

func syncDir(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- Backend interface -------------------------------------------------

// Append logs the batch, applies it to the tail, and seals the tail into
// a segment once it crosses SegmentRows.
func (d *Durable) Append(t *Table, b *types.Batch) error {
	if err := validateBatch(t, b); err != nil {
		return err
	}
	payload, err := encodeAppend(t.Name, b)
	if err != nil {
		return err
	}
	t.appendMu.Lock()
	defer t.appendMu.Unlock()
	d.rotateMu.RLock()
	err = d.logRecord(recAppend, payload)
	if err == nil {
		err = t.applyBatch(b)
	}
	d.rotateMu.RUnlock()
	if err != nil {
		return err
	}
	if t.tailLen() >= d.opts.SegmentRows {
		return d.seal(t, true)
	}
	return nil
}

// validateBatch rejects shape mismatches before anything reaches the
// log, so a logged append can always replay.
func validateBatch(t *Table, b *types.Batch) error {
	if len(b.Vecs) != t.schema.Len() {
		return fmt.Errorf("storage: table %s: batch arity %d != %d", t.Name, len(b.Vecs), t.schema.Len())
	}
	for i, v := range b.Vecs {
		if v.Type != t.schema.Columns[i].Type {
			return fmt.Errorf("storage: table %s: column %s is %v, batch has %v",
				t.Name, t.schema.Columns[i].Name, t.schema.Columns[i].Type, v.Type)
		}
	}
	return nil
}

// CreateTable logs and registers a new table.
func (d *Durable) CreateTable(c *Catalog, t *Table) error {
	d.ddlMu.Lock()
	defer d.ddlMu.Unlock()
	if c.HasTable(t.Name) {
		return fmt.Errorf("storage: table %q already exists", t.Name)
	}
	rec := createTableRec{Name: t.Name, Cols: schemaCols(t.schema)}
	if err := d.logJSON(recCreateTable, rec); err != nil {
		return err
	}
	t.backend = d
	return c.addTableLocal(t)
}

// DropTable logs and removes a table. Its segment files stay on disk
// until the next checkpoint's sweep.
func (d *Durable) DropTable(c *Catalog, name string) error {
	d.ddlMu.Lock()
	defer d.ddlMu.Unlock()
	if !c.HasTable(name) {
		return fmt.Errorf("storage: table %q does not exist", name)
	}
	if err := d.logJSON(recDropTable, dropTableRec{Name: name}); err != nil {
		return err
	}
	return c.dropTableLocal(name)
}

// SetUniqueKey logs and declares a unique key.
func (d *Durable) SetUniqueKey(c *Catalog, table, col string) error {
	d.ddlMu.Lock()
	defer d.ddlMu.Unlock()
	if err := d.logJSON(recUniqueKey, uniqueKeyRec{Table: table, Col: col}); err != nil {
		return err
	}
	c.setUniqueKeyLocal(table, col)
	return nil
}

// PutModel logs the put — model bytes ride in the WAL until a checkpoint
// writes them out as a content-addressed blob — then applies it. ddlMu
// makes the log order the apply order, so replay rebuilds the same chain.
func (d *Durable) PutModel(s *ModelStore, m *StoredModel) (*StoredModel, error) {
	d.ddlMu.Lock()
	defer d.ddlMu.Unlock()
	rec := modelPutsRec{Puts: []modelPutRec{{Name: m.Name, Bytes: m.Bytes, Hash: m.Hash}}}
	if err := d.logJSON(recModelPut, rec); err != nil {
		return nil, err
	}
	return s.apply(m), nil
}

// --- Logging helpers ---------------------------------------------------

// logRecord appends one record to the live WAL. Callers hold rotateMu
// shared (or exclusively, during checkpoint).
func (d *Durable) logRecord(recType byte, payload []byte) error {
	if err := d.log.Append(recType, payload); err != nil {
		return err
	}
	d.walRecords.Add(1)
	return nil
}

// logJSON marshals and appends a record under rotateMu.RLock; used by
// the DDL and model-put paths (appends inline the lock to cover the
// memory apply too).
func (d *Durable) logJSON(recType byte, rec any) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	d.rotateMu.RLock()
	defer d.rotateMu.RUnlock()
	return d.logRecord(recType, payload)
}

// encodeAppend frames a batch append: [u16 nameLen][name][batch codec].
func encodeAppend(table string, b *types.Batch) ([]byte, error) {
	body, err := segment.EncodeBatch(b)
	if err != nil {
		return nil, err
	}
	if len(table) > 1<<16-1 {
		return nil, fmt.Errorf("storage: table name too long")
	}
	out := make([]byte, 2+len(table)+len(body))
	binary.LittleEndian.PutUint16(out, uint16(len(table)))
	copy(out[2:], table)
	copy(out[2+len(table):], body)
	return out, nil
}

func decodeAppend(payload []byte) (table string, body []byte, err error) {
	if len(payload) < 2 {
		return "", nil, errors.New("storage: append record too short")
	}
	n := int(binary.LittleEndian.Uint16(payload))
	if len(payload) < 2+n {
		return "", nil, errors.New("storage: append record truncated name")
	}
	return string(payload[2 : 2+n]), payload[2+n:], nil
}

func schemaCols(s *types.Schema) []manifestCol {
	out := make([]manifestCol, s.Len())
	for i, c := range s.Columns {
		out[i] = manifestCol{Name: c.Name, Type: int(c.Type)}
	}
	return out
}

func colsSchema(cols []manifestCol) *types.Schema {
	out := make([]types.Column, len(cols))
	for i, c := range cols {
		out[i] = types.Column{Name: c.Name, Type: types.DataType(c.Type)}
	}
	return types.NewSchema(out...)
}

// --- Sealing -----------------------------------------------------------

// seal writes the table's entire tail as a new segment file, fsyncs it
// and the directory, optionally logs a SEAL record (the checkpoint path
// skips it — its manifest references the segment directly), and swaps
// the tail. Callers hold t.appendMu, so the tail is stable.
func (d *Durable) seal(t *Table, logRec bool) error {
	b, n := t.tailBatch()
	if n == 0 {
		return nil
	}
	file := fmt.Sprintf("%s-%08d.seg", sanitizeName(t.Name), d.segSeq.Add(1))
	path := filepath.Join(d.dir, "seg", file)
	if err := segment.Write(path, b); err != nil {
		return fmt.Errorf("storage: seal %s: %w", t.Name, err)
	}
	if err := syncDir(filepath.Join(d.dir, "seg")); err != nil {
		return fmt.Errorf("storage: seal %s: %w", t.Name, err)
	}
	if logRec {
		payload, err := json.Marshal(sealRec{Table: t.Name, File: file, Rows: n})
		if err != nil {
			return err
		}
		d.rotateMu.RLock()
		err = d.logRecord(recSeal, payload)
		d.rotateMu.RUnlock()
		if err != nil {
			return err
		}
	}
	r, err := segment.Open(path)
	if err != nil {
		return fmt.Errorf("storage: seal %s: reopen: %w", t.Name, err)
	}
	return t.sealTail(r, n)
}

// --- Checkpoint --------------------------------------------------------

// Checkpoint seals every tail, compacts small segments, rotates the WAL,
// writes model blobs and a new MANIFEST atomically, then sweeps every
// file the new MANIFEST does not name.
func (d *Durable) Checkpoint() error {
	d.ddlMu.Lock()
	defer d.ddlMu.Unlock()
	return d.checkpointLocked()
}

func (d *Durable) checkpointLocked() error {
	c := d.catalog
	// Snapshot the table set: ddlMu is held, so it cannot change. Take
	// every appendMu (sorted for a stable order against concurrent
	// checkpoints — there are none, but cheap insurance) so no append is
	// between its WAL record and its memory apply or mid-seal.
	names := c.TableNames()
	tables := make([]*Table, 0, len(names))
	for _, n := range names {
		t, err := c.Table(n)
		if err != nil {
			return err
		}
		tables = append(tables, t)
	}
	sort.Slice(tables, func(i, j int) bool { return tables[i].Name < tables[j].Name })
	for _, t := range tables {
		t.appendMu.Lock()
		defer t.appendMu.Unlock()
	}

	for _, t := range tables {
		if err := d.seal(t, false); err != nil {
			return err
		}
		if err := d.compactTable(t); err != nil {
			return err
		}
	}
	if err := syncDir(filepath.Join(d.dir, "seg")); err != nil {
		return err
	}

	// Rotate: sync the old log in full first, so only the newest WAL
	// file can ever have a torn tail at recovery.
	d.rotateMu.Lock()
	if err := d.log.Sync(); err != nil {
		d.rotateMu.Unlock()
		return err
	}
	newSeq := d.walSeq + 1
	newLog, err := wal.Open(d.walPath(newSeq), d.walOpts())
	if err != nil {
		d.rotateMu.Unlock()
		return err
	}
	oldLog := d.log
	d.log = newLog
	d.walSeq = newSeq
	d.rotateMu.Unlock()
	if err := oldLog.Close(); err != nil {
		return err
	}

	// Model blobs: content-addressed, written via rename so a crash never
	// leaves a short blob under a valid name.
	models := c.Models.snapshotModels()
	for _, m := range models {
		if err := d.writeModelBlob(m); err != nil {
			return err
		}
	}

	man := manifestFile{WalSeq: newSeq, SegSeq: d.segSeq.Load()}
	for _, t := range tables {
		mt := manifestTable{Name: t.Name, Cols: schemaCols(t.schema), Unique: c.UniqueKeys(t.Name)}
		for _, p := range t.sealedSnapshot() {
			mt.Segments = append(mt.Segments, manifestSeg{File: filepath.Base(p.r.Path()), Rows: p.rows})
		}
		man.Tables = append(man.Tables, mt)
	}
	for _, m := range models {
		man.Models = append(man.Models, manifestModel{Name: m.Name, Hash: m.Hash, File: m.Hash + ".bin"})
	}
	if err := d.writeManifest(&man); err != nil {
		return err
	}
	// The new WAL is empty (every lock is held), so the new manifest
	// names everything a recovery could need.
	d.sweep(man.files(), newSeq)
	d.checkpoints.Add(1)
	return nil
}

func (d *Durable) writeModelBlob(m *StoredModel) error {
	path := filepath.Join(d.dir, "models", m.Hash+".bin")
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(m.Bytes); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Join(d.dir, "models"))
}

func (d *Durable) writeManifest(man *manifestFile) error {
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(d.dir, "MANIFEST.tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(d.dir, "MANIFEST")); err != nil {
		return err
	}
	return syncDir(d.dir)
}

// compactTable folds runs of two or more undersized neighboring segments
// into full-size ones, preserving row order. The files it replaces go at
// the checkpoint's sweep.
func (d *Durable) compactTable(t *Table) error {
	parts := t.sealedSnapshot()
	var out []sealedPart
	folded := false
	for i, pos := 0, 0; i < len(parts); {
		j, end := i, pos
		for j < len(parts) && parts[j].rows < d.opts.SegmentRows {
			end += parts[j].rows
			j++
		}
		if j-i < 2 {
			out = append(out, parts[i])
			i, pos = i+1, pos+parts[i].rows
			continue
		}
		folded = true
		for lo := pos; lo < end; lo += d.opts.SegmentRows {
			b, err := t.ScanRange(lo, min(lo+d.opts.SegmentRows, end), nil)
			if err != nil {
				return fmt.Errorf("storage: compact %s: %w", t.Name, err)
			}
			path := filepath.Join(d.dir, "seg", fmt.Sprintf("%s-%08d.seg", sanitizeName(t.Name), d.segSeq.Add(1)))
			if err := segment.Write(path, b); err != nil {
				return err
			}
			r, err := segment.Open(path)
			if err != nil {
				return err
			}
			out = append(out, sealedPart{r: r, rows: b.Len()})
		}
		i, pos = j, end
	}
	if !folded {
		return nil
	}
	return t.replaceSealed(out)
}

// --- Recovery ----------------------------------------------------------

func (d *Durable) recover() (*Catalog, error) {
	c := NewCatalog()
	man, err := d.readManifest()
	if err != nil {
		return nil, err
	}
	// Attach manifest segments. A segment that fails its checksum is
	// quarantined (renamed aside) and recovery stops with an error naming
	// it — the data is not silently dropped.
	for _, mt := range man.Tables {
		t := NewTable(mt.Name, colsSchema(mt.Cols))
		for _, ms := range mt.Segments {
			path := filepath.Join(d.dir, "seg", ms.File)
			r, err := d.openSegment(path)
			if err != nil {
				return nil, err
			}
			if r.Rows() != ms.Rows {
				r.Close()
				return nil, fmt.Errorf("storage: recovery: segment %s has %d rows, manifest says %d", ms.File, r.Rows(), ms.Rows)
			}
			t.attachSegment(r)
		}
		if err := c.addTableLocal(t); err != nil {
			return nil, err
		}
		for _, col := range mt.Unique {
			c.setUniqueKeyLocal(mt.Name, col)
		}
	}
	for _, mm := range man.Models {
		path := filepath.Join(d.dir, "models", mm.File)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("storage: recovery: model blob %s: %w", mm.File, err)
		}
		h := sha256.Sum256(data)
		if hex.EncodeToString(h[:]) != mm.Hash {
			return nil, fmt.Errorf("storage: recovery: model blob %s fails its content hash", mm.File)
		}
		c.Models.apply(&StoredModel{Name: mm.Name, Bytes: data, Hash: mm.Hash})
	}
	d.segSeq.Store(max(man.SegSeq, d.maxSegSeqOnDisk()))

	// Until the next checkpoint, a crash recovers from this MANIFEST and
	// this WAL again: the sweep spares every file either names, dropped
	// tables' segments and superseded blobs included.
	keep := man.files()
	if err := d.replayWAL(c, man, keep); err != nil {
		return nil, err
	}
	d.sweep(keep, man.WalSeq)
	return c, nil
}

// files lists the segment files and model blobs the manifest names, as
// paths relative to the data directory.
func (man *manifestFile) files() map[string]bool {
	keep := make(map[string]bool)
	for _, mt := range man.Tables {
		for _, ms := range mt.Segments {
			keep[filepath.Join("seg", ms.File)] = true
		}
	}
	for _, mm := range man.Models {
		keep[filepath.Join("models", mm.File)] = true
	}
	return keep
}

func (d *Durable) openSegment(path string) (*segment.Reader, error) {
	r, err := segment.Open(path)
	if err == nil {
		if verr := r.Verify(); verr != nil {
			r.Close()
			err = verr
		}
	}
	if err != nil {
		var ce *segment.CorruptError
		if errors.As(err, &ce) {
			q, qerr := segment.Quarantine(path)
			if qerr != nil {
				return nil, fmt.Errorf("storage: recovery: segment %s is corrupt (%v) and could not be quarantined: %v", filepath.Base(path), err, qerr)
			}
			return nil, fmt.Errorf("storage: recovery: segment %s is corrupt (%v); quarantined at %s — restore it from a replica or delete the quarantine file and its manifest entry to drop those rows", filepath.Base(path), err, q)
		}
		return nil, fmt.Errorf("storage: recovery: segment %s: %w", filepath.Base(path), err)
	}
	return r, nil
}

func (d *Durable) readManifest() (*manifestFile, error) {
	data, err := os.ReadFile(filepath.Join(d.dir, "MANIFEST"))
	if err != nil {
		if os.IsNotExist(err) {
			return &manifestFile{WalSeq: 1}, nil
		}
		return nil, fmt.Errorf("storage: read MANIFEST: %w", err)
	}
	var man manifestFile
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("storage: parse MANIFEST: %w", err)
	}
	if man.WalSeq == 0 {
		man.WalSeq = 1
	}
	return &man, nil
}

// maxSegSeqOnDisk scans the segment directory so a restarted process
// never reuses a sequence number, even for files from interrupted seals
// the manifest has not caught up to.
func (d *Durable) maxSegSeqOnDisk() uint64 {
	entries, err := os.ReadDir(filepath.Join(d.dir, "seg"))
	if err != nil {
		return 0
	}
	var maxSeq uint64
	for _, e := range entries {
		name := strings.TrimSuffix(e.Name(), ".seg")
		if name == e.Name() {
			continue
		}
		if i := strings.LastIndexByte(name, '-'); i >= 0 {
			if n, err := strconv.ParseUint(name[i+1:], 10, 64); err == nil && n > maxSeq {
				maxSeq = n
			}
		}
	}
	return maxSeq
}

// walSeqsOnDisk lists the WAL sequence numbers present, ascending.
func (d *Durable) walSeqsOnDisk() []uint64 {
	entries, err := os.ReadDir(filepath.Join(d.dir, "wal"))
	if err != nil {
		return nil
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		if n, err := strconv.ParseUint(name[4:len(name)-4], 10, 64); err == nil {
			seqs = append(seqs, n)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs
}

// replayWAL replays every WAL file at or after the manifest's sequence,
// in order. Only the newest file may end in a torn record (rotation
// syncs the old log first); it is truncated past the last good record
// and reused as the live log. Every segment a SEAL record names is added
// to keep.
func (d *Durable) replayWAL(c *Catalog, man *manifestFile, keep map[string]bool) error {
	var seqs []uint64
	for _, s := range d.walSeqsOnDisk() {
		if s >= man.WalSeq {
			seqs = append(seqs, s)
		}
	}
	if len(seqs) == 0 {
		log, err := wal.Open(d.walPath(man.WalSeq), d.walOpts())
		if err != nil {
			return err
		}
		d.log = log
		d.walSeq = man.WalSeq
		return nil
	}
	var replayed uint64
	for i, seq := range seqs {
		path := d.walPath(seq)
		good, n, err := wal.Replay(path, func(recType byte, payload []byte) error {
			return d.applyRecord(c, recType, payload, keep)
		})
		if err != nil {
			return fmt.Errorf("storage: recovery: replay %s: %w", filepath.Base(path), err)
		}
		replayed += n
		if i < len(seqs)-1 {
			if fi, serr := os.Stat(path); serr == nil && good != fi.Size() {
				return fmt.Errorf("storage: recovery: %s is corrupt mid-chain (good through %d of %d bytes)", filepath.Base(path), good, fi.Size())
			}
			continue
		}
		log, err := wal.OpenTruncated(path, d.walOpts(), good)
		if err != nil {
			return err
		}
		d.log = log
		d.walSeq = seq
	}
	d.walRecords.Store(replayed)
	return nil
}

// applyRecord applies one replayed WAL record to the catalog being
// rebuilt. The backend is not attached yet, so nothing re-logs.
func (d *Durable) applyRecord(c *Catalog, recType byte, payload []byte, keep map[string]bool) error {
	switch recType {
	case recAppend:
		name, body, err := decodeAppend(payload)
		if err != nil {
			return err
		}
		t, err := c.Table(name)
		if err != nil {
			return err
		}
		b, err := segment.DecodeBatch(t.schema, body)
		if err != nil {
			return err
		}
		return t.applyBatch(b)
	case recCreateTable:
		var rec createTableRec
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		return c.addTableLocal(NewTable(rec.Name, colsSchema(rec.Cols)))
	case recDropTable:
		var rec dropTableRec
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		return c.dropTableLocal(rec.Name)
	case recUniqueKey:
		var rec uniqueKeyRec
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		c.setUniqueKeyLocal(rec.Table, rec.Col)
		return nil
	case recModelPut:
		var rec modelPutsRec
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		for _, p := range rec.Puts {
			c.Models.apply(&StoredModel{Name: p.Name, Bytes: p.Bytes, Hash: p.Hash})
		}
		return nil
	case recSeal:
		var rec sealRec
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		t, err := c.Table(rec.Table)
		if err != nil {
			return err
		}
		keep[filepath.Join("seg", rec.File)] = true
		r, err := d.openSegment(filepath.Join(d.dir, "seg", rec.File))
		if err != nil {
			return err
		}
		if err := t.sealTail(r, rec.Rows); err != nil {
			r.Close()
			return err
		}
		return nil
	default:
		return fmt.Errorf("storage: recovery: unknown WAL record type %d", recType)
	}
}

// sweep deletes what no recovery can need: segment files and model
// blobs keep does not list, WAL files before walSeq, and a stray
// MANIFEST.tmp. Quarantined segments stay for inspection. It is best
// effort: a file it cannot list or remove goes at a later sweep. Both
// callers run with no seal in flight: recovery before the backend attaches, the
// checkpoint with ddlMu and every appendMu held.
func (d *Durable) sweep(keep map[string]bool, walSeq uint64) {
	for _, sub := range []string{"seg", "models"} {
		entries, _ := os.ReadDir(filepath.Join(d.dir, sub))
		for _, e := range entries {
			rel := filepath.Join(sub, e.Name())
			if !keep[rel] && !strings.HasSuffix(rel, ".quarantined") {
				os.Remove(filepath.Join(d.dir, rel))
			}
		}
	}
	for _, seq := range d.walSeqsOnDisk() {
		if seq < walSeq {
			os.Remove(d.walPath(seq))
		}
	}
	os.Remove(filepath.Join(d.dir, "MANIFEST.tmp"))
}

// --- Lifecycle ---------------------------------------------------------

func (d *Durable) checkpointLoop() {
	defer close(d.done)
	ticker := time.NewTicker(checkpointPoll)
	defer ticker.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-ticker.C:
			d.rotateMu.RLock()
			size := d.log.Size()
			d.rotateMu.RUnlock()
			if size > checkpointWalBytes {
				if err := d.Checkpoint(); err != nil {
					// A failed background checkpoint leaves the previous
					// manifest + WAL chain intact; the next WAL append will
					// surface any sticky log error to the writer.
					continue
				}
			}
		}
	}
}

// LastRecovery returns how long recovery took at open.
func (d *Durable) LastRecovery() time.Duration { return time.Duration(d.lastRec.Load()) }

// Stats summarizes the durable state for DB.Stats().
func (d *Durable) Stats() DurableStats {
	st := DurableStats{
		WalRecords:      d.walRecords.Load(),
		LastRecoveryMs:  int64(d.LastRecovery() / time.Millisecond),
		Checkpoints:     d.checkpoints.Load(),
		Fsync:           d.opts.Fsync.String(),
		SegmentsScanned: d.segsScanned.Load(),
		SegmentsPruned:  d.segsPruned.Load(),
	}
	d.rotateMu.RLock()
	st.WalBytes = d.log.Size()
	d.rotateMu.RUnlock()
	for _, name := range d.catalog.TableNames() {
		if t, err := d.catalog.Table(name); err == nil {
			segs, rows := t.Segments()
			st.Segments += segs
			st.SealedRows += rows
		}
	}
	return st
}

// Close stops the background checkpointer, optionally takes a final
// checkpoint (so the next open replays nothing), and closes the log and
// all segment readers.
func (d *Durable) Close(checkpoint bool) error {
	d.closeOnce.Do(func() {
		d.stopOnce.Do(func() { close(d.stop) })
		<-d.done
		var err error
		if checkpoint {
			err = d.Checkpoint()
		}
		if cerr := d.closeLog(); err == nil {
			err = cerr
		}
		d.closeSegments()
		d.closeErr = err
	})
	return d.closeErr
}

// Abort closes without syncing or checkpointing — the crash-simulation
// path for recovery tests and benchmarks: whatever the OS has not been
// told to persist is deliberately left at risk, exactly like kill -9.
func (d *Durable) Abort() error {
	var err error
	d.closeOnce.Do(func() {
		d.stopOnce.Do(func() { close(d.stop) })
		<-d.done
		err = d.log.Abort()
		d.closeSegments()
		d.closeErr = err
	})
	return err
}

func (d *Durable) closeLog() error {
	d.rotateMu.Lock()
	defer d.rotateMu.Unlock()
	return d.log.Close()
}

func (d *Durable) closeSegments() {
	for _, name := range d.catalog.TableNames() {
		if t, err := d.catalog.Table(name); err == nil {
			t.closeSealed()
		}
	}
}

// Package wal implements the write-ahead log underneath the durable
// storage backend: an append-only file of CRC32C-framed, length-prefixed
// records with group-commit batching and a configurable fsync policy.
// The log knows nothing about record semantics — payloads are opaque
// bytes tagged with a one-byte type — so it stays a leaf package under
// both the storage layer and its tests.
//
// Frame layout (little-endian):
//
//	[len uint32][crc uint32][type byte][payload len bytes]
//
// crc is CRC32C (Castagnoli) over the type byte followed by the payload,
// so a frame whose length field was itself torn fails the checksum
// instead of mis-framing the rest of the file. Replay stops at the first
// frame that is short or fails its checksum and reports the offset of
// the last good frame, which Open then truncates to — the standard
// torn-tail tolerance: an append that did not finish never happened.
package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"
)

// Policy selects when appended records are fsynced to stable storage.
type Policy int

const (
	// FsyncAlways syncs before Append returns: an acknowledged write
	// survives kill -9 and power loss. Concurrent appenders share fsyncs
	// via group commit.
	FsyncAlways Policy = iota
	// FsyncInterval syncs on a background timer (every syncInterval):
	// an acknowledged write survives process death (the data is in the OS
	// page cache) but the last interval may be lost on power failure.
	FsyncInterval
	// FsyncOff never syncs except at clean close and checkpoint: fastest
	// loads, weakest guarantee.
	FsyncOff
)

// ParsePolicy maps the CLI/option spelling to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "off":
		return FsyncOff, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or off)", s)
	}
}

// String renders the policy in its CLI spelling.
func (p Policy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	default:
		return "off"
	}
}

// Options configures a Log.
type Options struct {
	Policy Policy
}

const (
	// syncInterval is the background sync period under FsyncInterval.
	syncInterval = 50 * time.Millisecond
	headerSize   = 9
	// maxRecord bounds a single payload; a length field beyond it is
	// treated as corruption rather than an allocation request.
	maxRecord = 1 << 28
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Log is an open write-ahead log file positioned at its end. Append is
// safe for concurrent use; under FsyncAlways concurrent appenders are
// batched into shared fsyncs (group commit).
type Log struct {
	path   string
	policy Policy

	mu      sync.Mutex // serializes writes; guards off and records
	f       *os.File
	off     int64
	records uint64

	// Group commit: the first appender to need durability past synced
	// becomes the leader and fsyncs everything written so far; appenders
	// arriving during an in-flight sync wait and are covered by the next
	// round. syncErr is sticky — after a failed fsync the log's tail is
	// in an unknown state, so every later append fails fast.
	syncMu  sync.Mutex
	syncCnd *sync.Cond
	synced  int64
	syncing bool
	syncErr error

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// Open opens (creating if absent) the log at path and appends at its
// current end. Use OpenTruncated after replay to drop a torn tail first.
func Open(path string, o Options) (*Log, error) {
	return open(path, o, -1)
}

// OpenTruncated opens the log at path, truncates it to size bytes (the
// last good offset reported by Replay), and appends from there.
func OpenTruncated(path string, o Options, size int64) (*Log, error) {
	return open(path, o, size)
}

func open(path string, o Options, size int64) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if size < 0 {
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		size = st.Size()
	} else if err := f.Truncate(size); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: truncate %s to %d: %w", path, size, err)
	}
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	l := &Log{path: path, policy: o.Policy, f: f, off: size, synced: size}
	l.syncCnd = sync.NewCond(&l.syncMu)
	if o.Policy == FsyncInterval {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.flushLoop()
	}
	return l, nil
}

func (l *Log) flushLoop() {
	defer close(l.done)
	t := time.NewTicker(syncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.Sync()
		}
	}
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Append writes one record and, under FsyncAlways, returns only after it
// is on stable storage.
func (l *Log) Append(recType byte, payload []byte) error {
	if len(payload) > maxRecord {
		return fmt.Errorf("wal: record of %d bytes exceeds limit", len(payload))
	}
	buf := make([]byte, headerSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	buf[8] = recType
	copy(buf[headerSize:], payload)
	crc := crc32.Update(0, castagnoli, buf[8:])
	binary.LittleEndian.PutUint32(buf[4:8], crc)

	l.syncMu.Lock()
	err := l.syncErr
	l.syncMu.Unlock()
	if err != nil {
		return fmt.Errorf("wal: log failed: %w", err)
	}

	l.mu.Lock()
	if _, err := l.f.Write(buf); err != nil {
		l.mu.Unlock()
		return fmt.Errorf("wal: append: %w", err)
	}
	l.off += int64(len(buf))
	l.records++
	end := l.off
	l.mu.Unlock()

	if l.policy == FsyncAlways {
		return l.syncTo(end)
	}
	return nil
}

// Sync forces everything appended so far onto stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	end := l.off
	l.mu.Unlock()
	return l.syncTo(end)
}

func (l *Log) syncTo(end int64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	for l.synced < end {
		if l.syncErr != nil {
			return fmt.Errorf("wal: log failed: %w", l.syncErr)
		}
		if l.syncing {
			l.syncCnd.Wait()
			continue
		}
		l.syncing = true
		l.syncMu.Unlock()
		l.mu.Lock()
		target := l.off
		l.mu.Unlock()
		err := l.f.Sync()
		l.syncMu.Lock()
		l.syncing = false
		if err != nil {
			l.syncErr = err
		} else if target > l.synced {
			l.synced = target
		}
		l.syncCnd.Broadcast()
		if err != nil {
			return fmt.Errorf("wal: fsync: %w", err)
		}
	}
	return nil
}

// Size returns the current log size in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.off
}

// Records returns the number of records appended through this Log (not
// counting records already in the file at Open; the recovery layer adds
// those itself).
func (l *Log) Records() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

// Close stops the background flusher, syncs once (so a clean shutdown is
// durable under every policy), and closes the file.
func (l *Log) Close() error {
	if l.stop != nil {
		l.stopOnce.Do(func() { close(l.stop) })
		<-l.done
	}
	err := l.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Abort closes the underlying file without a final sync — it simulates
// the process dying mid-write, so crash-recovery tests exercise the torn
// tail path without an actual kill.
func (l *Log) Abort() error {
	if l.stop != nil {
		l.stopOnce.Do(func() { close(l.stop) })
		<-l.done
	}
	return l.f.Close()
}

// Replay streams every intact record of the log at path through fn, in
// order. A torn or corrupt tail — short header, short payload, absurd
// length, or checksum mismatch — ends the scan without error: Replay
// returns the offset just past the last good record, which the caller
// truncates to before appending again. An error from fn is fatal and
// returned as-is. A missing file replays zero records. Nothing it
// allocates outgrows the file: a length field claiming more bytes than
// are left is a torn payload, found before any buffer is sized to it.
func Replay(path string, fn func(recType byte, payload []byte) error) (good int64, records uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, nil
		}
		return 0, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	size := fi.Size()
	r := newCountReader(bufio.NewReaderSize(f, int(min(size, 1<<20))))
	hdr := make([]byte, headerSize)
	var payload []byte
	for {
		start := r.n
		if _, err := io.ReadFull(r, hdr); err != nil {
			return start, records, nil // clean EOF or torn header
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if n > maxRecord || int64(n) > size-r.n {
			return start, records, nil // corrupt length or torn payload
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return start, records, nil // torn payload
		}
		sum := crc32.Update(0, castagnoli, hdr[8:9])
		sum = crc32.Update(sum, castagnoli, payload)
		if sum != crc {
			return start, records, nil // corrupt frame
		}
		if err := fn(hdr[8], payload); err != nil {
			return start, records, err
		}
		records++
	}
}

// countReader tracks the byte offset consumed from the underlying
// reader so Replay can report exact frame boundaries.
type countReader struct {
	r io.Reader
	n int64
}

func newCountReader(r io.Reader) *countReader { return &countReader{r: r} }

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

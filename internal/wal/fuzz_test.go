package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// record is one replayed frame: its type byte and a copy of its payload.
type record struct {
	typ     byte
	payload []byte
}

func replayAll(t *testing.T, path string) ([]record, int64) {
	t.Helper()
	var recs []record
	good, n, err := Replay(path, func(typ byte, p []byte) error {
		recs = append(recs, record{typ, append([]byte(nil), p...)})
		return nil
	})
	if err != nil || n != uint64(len(recs)) {
		t.Fatalf("replay: %d records counted, %d seen, err %v", n, len(recs), err)
	}
	return recs, good
}

// replaySlack is what Replay may allocate beyond the file's size: the
// open file, the reader and header buffers, and the runtime's noise.
const replaySlack = 256 << 10

// FuzzWALReplay feeds arbitrary bytes to Replay as a log file. Replay
// must not panic or allocate more than twice the file (its read buffer
// and its payload buffer) plus replaySlack; good must fall on a frame
// boundary, with exactly the replayed frames before it; and replaying
// the file cut at good must give the same records. The seed corpus
// holds a 9-byte torn header that claims a 2^28-byte payload.
func FuzzWALReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := Replay(path, func(byte, []byte) error { return nil })
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, 2*uint64(len(data))+replaySlack; got > limit {
			t.Fatalf("replaying %d bytes allocated %d, limit %d", len(data), got, limit)
		}

		recs, good := replayAll(t, path)
		off := int64(0)
		for i, r := range recs {
			n := int64(binary.LittleEndian.Uint32(data[off:]))
			if data[off+8] != r.typ || !bytes.Equal(data[off+headerSize:off+headerSize+n], r.payload) {
				t.Fatalf("record %d differs from the frame at %d", i, off)
			}
			off += headerSize + n
		}
		if off != good {
			t.Fatalf("good = %d, but the %d replayed frames end at %d", good, len(recs), off)
		}

		if err := os.WriteFile(path, data[:good], 0o644); err != nil {
			t.Fatal(err)
		}
		cut, cutGood := replayAll(t, path)
		if cutGood != good || len(cut) != len(recs) {
			t.Fatalf("cut at %d: %d records good %d, want %d records", good, len(cut), cutGood, len(recs))
		}
		for i := range cut {
			if cut[i].typ != recs[i].typ || !bytes.Equal(cut[i].payload, recs[i].payload) {
				t.Fatalf("cut at %d: record %d differs", good, i)
			}
		}
	})
}

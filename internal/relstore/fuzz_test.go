package relstore

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// logBytes builds a realistic log by driving the real write path (create,
// insert, update, delete), for use as a fuzz seed.
func logBytes(tb testing.TB) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "seed.db")
	db, err := Open(path)
	if err != nil {
		tb.Fatalf("seed db: %v", err)
	}
	if err := db.CreateTable(machineSchema()); err != nil {
		tb.Fatalf("seed table: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := db.Insert("machines", sampleRow(i)); err != nil {
			tb.Fatalf("seed insert: %v", err)
		}
	}
	if err := db.Update("machines", 1, Row{"hours": int64(7), "notes": "x"}); err != nil {
		tb.Fatalf("seed update: %v", err)
	}
	if err := db.Delete("machines", 2); err != nil {
		tb.Fatalf("seed delete: %v", err)
	}
	if err := db.Close(); err != nil {
		tb.Fatalf("close seed db: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatalf("read seed log: %v", err)
	}
	return data
}

// dbState renders every row through the log encoding, so two replays can
// be compared exactly (NaN floats included).
func dbState(t *testing.T, db *DB) map[string]map[int64]map[string]string {
	t.Helper()
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make(map[string]map[int64]map[string]string, len(db.tables))
	for name, tbl := range db.tables {
		rows := make(map[int64]map[string]string, len(tbl.rows))
		for id, r := range tbl.rows {
			enc, err := encodeRow(r, tbl.schema)
			if err != nil {
				t.Fatalf("encode replayed row %s/%d: %v", name, id, err)
			}
			rows[id] = enc
		}
		out[name] = rows
	}
	return out
}

// FuzzReplay writes arbitrary bytes as a relstore log and opens it. Replay
// must never panic. When it accepts the log, recovery must be stable: a
// second open after close rebuilds the identical tables and rows, because
// the first repaired the file in place.
func FuzzReplay(f *testing.F) {
	full := logBytes(f)
	f.Add(full)
	f.Add([]byte(logMagic))   // header only
	f.Add(full[:len(full)-3]) // torn final record
	flipped := bytes.Clone(full)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped) // damaged interior record
	f.Add([]byte{})
	f.Add([]byte(`{"op":"create_table","table":"t"}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.db")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(path)
		if err != nil {
			return // refused input: any error is acceptable, panics are not
		}
		first := dbState(t, db)
		if err := db.Close(); err != nil {
			t.Fatalf("close replayed db: %v", err)
		}
		db2, err := Open(path)
		if err != nil {
			t.Fatalf("recovery not stable: reopen failed: %v", err)
		}
		defer func() { _ = db2.Close() }()
		if second := dbState(t, db2); !reflect.DeepEqual(first, second) {
			t.Fatalf("replay not stable:\n%v\nthen\n%v", first, second)
		}
	})
}

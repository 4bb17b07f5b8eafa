package relstore

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/recordlog"
)

// buildLog writes a fresh durable database with n rows and returns its path.
func buildLog(t *testing.T, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "crash.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(machineSchema()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := db.Insert("machines", sampleRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestTornFinalLineIsRecovered(t *testing.T) {
	path := buildLog(t, 10)
	// Simulate a power loss mid-append: chop the file mid-way through the
	// final record.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-17], 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(path)
	if err != nil {
		t.Fatalf("torn tail must be recoverable: %v", err)
	}
	n, err := db.Count("machines", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 9 {
		t.Errorf("recovered %d rows, want 9 (last insert torn)", n)
	}
	// The log is clean again: new writes then reopen see everything.
	if _, err := db.Insert("machines", sampleRow(100)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path)
	if err != nil {
		t.Fatalf("second reopen after recovery: %v", err)
	}
	defer db2.Close()
	n, _ = db2.Count("machines", nil)
	if n != 10 {
		t.Errorf("after recovery + insert: %d rows, want 10", n)
	}
}

func TestTornTailWithoutNewlineIsRecovered(t *testing.T) {
	path := buildLog(t, 5)
	// Append a prefix of a record's frame (partial record).
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	frame := recordlog.AppendFrame(nil, recMagic, kindOp, 0, []byte(`{"op":"insert","table":"machines"}`))
	if _, err := f.Write(frame[:len(frame)-5]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	db, err := Open(path)
	if err != nil {
		t.Fatalf("partial trailing record must be recoverable: %v", err)
	}
	defer db.Close()
	n, _ := db.Count("machines", nil)
	if n != 5 {
		t.Errorf("recovered %d rows, want 5", n)
	}
}

func TestInteriorCorruptionIsRefused(t *testing.T) {
	path := buildLog(t, 10)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a record body in the middle: this is not a torn tail and must
	// be surfaced, not silently dropped.
	var offs []int
	off := len(logMagic)
	if _, err := recordlog.Scan(data, off, recMagic, func(fr recordlog.Frame) error {
		offs = append(offs, off)
		off += recordlog.Overhead + len(fr.Body)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	data[offs[4]+recordlog.Overhead] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("interior corruption must refuse to open")
	}
}

// TestJSONLinesLogRefused: a log in the JSON-lines format of earlier
// versions is refused with an error naming that format, never misread.
func TestJSONLinesLogRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.db")
	old := `{"op":"create_table","table":"t","schema":{"name":"t","columns":[{"name":"a","type":1}]}}` + "\n"
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(path)
	if err == nil || !strings.Contains(err.Error(), "JSON-lines") {
		t.Fatalf("JSON-lines log: err = %v, want a version error", err)
	}
}

// TestStaleCompactTempRemoved: a crash mid-Compact leaves the temp file
// beside the log; it must not shadow the log and is gone after Open.
func TestStaleCompactTempRemoved(t *testing.T) {
	path := buildLog(t, 3)
	if err := os.WriteFile(path+".tmp", []byte("garbage from a dying process"), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if n, _ := db.Count("machines", nil); n != 3 {
		t.Fatalf("recovered %d rows with a stale temp, want 3", n)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("stale temp survived Open: %v", err)
	}
}

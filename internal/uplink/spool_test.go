package uplink

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/proto"
)

func testReport(i int) *proto.Report {
	return &proto.Report{
		DCID:               "dc-1",
		KnowledgeSourceID:  "ks/dli",
		SensedObjectID:     "motor/1",
		MachineConditionID: "motor imbalance",
		Severity:           0.5,
		Belief:             0.8,
		Explanation:        "r" + string(rune('0'+i)),
		Timestamp:          time.Date(1998, 8, 15, 12, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Minute),
	}
}

func TestSpoolRecoversPendingAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := openSpool(dir, "dc-1", 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		seq, dropped, err := s.add(testReport(i))
		if err != nil || len(dropped) != 0 {
			t.Fatal(seq, dropped, err)
		}
		if seq != uint64(i) {
			t.Fatalf("seq %d, want %d", seq, i)
		}
	}
	if err := s.resolve(1); err != nil {
		t.Fatal(err)
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}

	s2, err := openSpool(dir, "dc-1", 100)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.close()
	if len(s2.pending) != 2 {
		t.Fatalf("recovered %d pending, want 2", len(s2.pending))
	}
	// The boot incarnation persists with the file, so replayed sequences
	// stay deduplicable on the PDME across DC restarts.
	if s2.boot != s.boot || s2.boot == 0 {
		t.Errorf("boot %d after reopen, want the persisted %d", s2.boot, s.boot)
	}
	for i, rec := range s2.pending {
		if rec.seq != uint64(i+2) || !rec.recovered {
			t.Errorf("pending[%d] = seq %d recovered %v", i, rec.seq, rec.recovered)
		}
		if want := "r" + string(rune('0'+i+2)); rec.report.Explanation != want {
			t.Errorf("pending[%d] explanation %q, want %q", i, rec.report.Explanation, want)
		}
	}
	// Monotonic sequences continue where the previous process stopped.
	seq, _, err := s2.add(testReport(4))
	if err != nil || seq != 4 {
		t.Fatalf("next seq %d err %v, want 4", seq, err)
	}
}

func TestSpoolSequenceSurvivesFullDrain(t *testing.T) {
	dir := t.TempDir()
	s, err := openSpool(dir, "dc-1", 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, _, err := s.add(testReport(i)); err != nil {
			t.Fatal(err)
		}
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := s.resolve(seq); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	// Reopen compacts (resolved records recovered); the sequence watermark
	// must keep new sequences monotonic — reuse would make the PDME's dedup
	// window swallow brand-new reports.
	s2, err := openSpool(dir, "dc-1", 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.pending) != 0 || s2.nextSeq != 4 {
		t.Fatalf("pending %d nextSeq %d, want 0 and 4", len(s2.pending), s2.nextSeq)
	}
	if err := s2.close(); err != nil {
		t.Fatal(err)
	}
	// And again, after the compacted file (watermark only) is re-read.
	s3, err := openSpool(dir, "dc-1", 100)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.close()
	if seq, _, err := s3.add(testReport(4)); err != nil || seq != 4 {
		t.Fatalf("seq %d err %v, want 4", seq, err)
	}
}

func TestSpoolTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := openSpool(dir, "dc-1", 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if _, _, err := s.add(testReport(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, encodeSpoolFile("dc-1"))
	// Simulate a power loss mid-append: a prefix of a record's frame.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := make([]byte, 9)
	torn[0] = 0xD0 // first byte of recMagic (little-endian)
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := openSpool(dir, "dc-1", 100)
	if err != nil {
		t.Fatalf("torn tail not recovered: %v", err)
	}
	defer s2.close()
	if len(s2.pending) != 2 {
		t.Fatalf("recovered %d pending after torn tail, want 2", len(s2.pending))
	}
}

func TestSpoolInteriorCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := openSpool(dir, "dc-1", 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, _, err := s.add(testReport(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, encodeSpoolFile("dc-1"))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF // flip a bit mid-file
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openSpool(dir, "dc-1", 100); err == nil {
		t.Fatal("interior corruption accepted")
	} else if !strings.Contains(err.Error(), "corrupted") && !strings.Contains(err.Error(), "undecodable") {
		t.Errorf("unexpected corruption error: %v", err)
	}
}

func TestSpoolRefusesForeignDCID(t *testing.T) {
	dir := t.TempDir()
	s, err := openSpool(dir, "dc-1", 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	// Rename the spool so another DC id would open the same file.
	old := filepath.Join(dir, encodeSpoolFile("dc-1"))
	if err := os.Rename(old, filepath.Join(dir, encodeSpoolFile("dc-2"))); err != nil {
		t.Fatal(err)
	}
	if _, err := openSpool(dir, "dc-2", 100); err == nil {
		t.Fatal("foreign spool accepted")
	}
}

func TestSpoolCapacityDropsOldest(t *testing.T) {
	s, err := openSpool("", "dc-1", 3)
	if err != nil {
		t.Fatal(err)
	}
	var droppedAll []uint64
	for i := 1; i <= 5; i++ {
		_, dropped, err := s.add(testReport(i))
		if err != nil {
			t.Fatal(err)
		}
		droppedAll = append(droppedAll, dropped...)
	}
	if len(droppedAll) != 2 || droppedAll[0] != 1 || droppedAll[1] != 2 {
		t.Fatalf("dropped %v, want oldest-first [1 2]", droppedAll)
	}
	if len(s.pending) != 3 || s.pending[0].seq != 3 {
		t.Fatalf("pending head %d len %d", s.pending[0].seq, len(s.pending))
	}
}

func TestSpoolCompactionShrinksFile(t *testing.T) {
	dir := t.TempDir()
	s, err := openSpool(dir, "dc-1", 10000)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	// Cycle well past compactEvery resolved records.
	for i := 0; i < compactEvery+10; i++ {
		seq, _, err := s.add(testReport(i % 10))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.resolve(seq); err != nil {
			t.Fatal(err)
		}
	}
	if s.resolved >= compactEvery {
		t.Errorf("resolved count %d never compacted", s.resolved)
	}
	info, err := os.Stat(filepath.Join(dir, encodeSpoolFile("dc-1")))
	if err != nil {
		t.Fatal(err)
	}
	// A compacted empty spool is just header + watermark; give slack for a
	// few post-compaction records.
	if info.Size() > 4096 {
		t.Errorf("spool file %d bytes after full drain; compaction missing", info.Size())
	}
	if s.nextSeq != uint64(compactEvery+11) {
		t.Errorf("nextSeq %d after compaction, want %d", s.nextSeq, compactEvery+11)
	}
}

// TestSpoolRecordBytesUnchanged pins the on-disk record format: spool
// records are framed exactly as spools written before the recordlog
// extraction framed them (golden bytes for a report and its ack).
func TestSpoolRecordBytesUnchanged(t *testing.T) {
	dir := t.TempDir()
	s, err := openSpool(dir, "dc-g", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.appendRecord(recReport, 3, []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.appendRecord(recAck, 3, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, encodeSpoolFile("dc-g")))
	if err != nil {
		t.Fatal(err)
	}
	hdr := len(spoolMagic) + 8 + 2 + len("dc-g")
	golden := "d01e005b010300000000000000070000007b2278223a317dc3b55846" +
		"d01e005b020300000000000000000000003921b618"
	if got := hex.EncodeToString(data[hdr:]); got != golden {
		t.Fatalf("records = %s, want %s", got, golden)
	}
}

// TestSpoolStaleTempRemoved: a crash mid-compaction leaves the temp file
// behind; it must not shadow the spool and is gone after open.
func TestSpoolStaleTempRemoved(t *testing.T) {
	dir := t.TempDir()
	s, err := openSpool(dir, "dc-1", 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.add(testReport(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, encodeSpoolFile("dc-1")+".tmp")
	if err := os.WriteFile(tmp, []byte("garbage from a dying process"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := openSpool(dir, "dc-1", 100)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.close()
	if len(s2.pending) != 1 {
		t.Fatalf("recovered %d pending with a stale temp, want 1", len(s2.pending))
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale temp survived open: %v", err)
	}
}

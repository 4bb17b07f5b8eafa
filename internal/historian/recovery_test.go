package historian

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/recordlog"
)

func fillChannel(t *testing.T, dir string, n int) string {
	t.Helper()
	s := mustOpen(t, dir)
	ensure(t, s, ChannelConfig{Name: "vib/motor/rms", HeadCap: 32})
	for i := 0; i < n; i++ {
		if err := s.Append("vib/motor/rms", t0.Add(time.Duration(i)*time.Second), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, encodeChannelFile("vib/motor/rms"))
}

func TestReopenRecoversAllSamples(t *testing.T) {
	dir := t.TempDir()
	fillChannel(t, dir, 100)
	s := mustOpen(t, dir)
	defer s.Close()
	if !s.HasChannel("vib/motor/rms") {
		t.Fatalf("channel not recovered; have %v", s.Channels())
	}
	got, err := s.QueryAll("vib/motor/rms")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("recovered %d samples, want 100", len(got))
	}
	for i, smp := range got {
		if smp.Value != float64(i) {
			t.Fatalf("sample %d = %g", i, smp.Value)
		}
	}
	// Appends continue after recovery and survive another cycle.
	if err := s.Append("vib/motor/rms", t0.Add(200*time.Second), 200); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir)
	defer s2.Close()
	got, _ = s2.QueryAll("vib/motor/rms")
	if len(got) != 101 {
		t.Fatalf("after append+reopen: %d samples", len(got))
	}
}

// TestEnsureAfterRecoveryRebuildsTiers: tier configuration is not stored
// in segment files; re-ensuring the channel rebuilds rollups from the
// recovered raw data.
func TestEnsureAfterRecoveryRebuildsTiers(t *testing.T) {
	dir := t.TempDir()
	fillChannel(t, dir, 120)
	s := mustOpen(t, dir)
	defer s.Close()
	ensure(t, s, ChannelConfig{Name: "vib/motor/rms", Tiers: []time.Duration{time.Minute}})
	rolls, err := s.QueryRollup("vib/motor/rms", time.Minute, time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rolls) != 2 || rolls[0].Count != 60 || rolls[0].Min != 0 || rolls[0].Max != 59 {
		t.Fatalf("rebuilt rollups %+v", rolls)
	}
}

// TestTornTailTruncated mirrors relstore's crash test: a partial final
// block (power loss mid-append) is silently truncated to the last complete
// record boundary and the store reopens clean.
func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []int{1, 7, 8, 20, recordSize*5 + 11} {
		dir := t.TempDir()
		path := fillChannel(t, dir, 96) // 3 full blocks of 32
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Simulate a torn append: a prefix of a fourth block.
		torn := make([]byte, 0, len(data)+cut)
		torn = append(torn, data...)
		block := recordlog.AppendFrame(nil, blockMagic, kindBlock, 0, bytes.Repeat([]byte{0xAB}, 32*recordSize))
		if cut > len(block) {
			t.Fatalf("cut %d exceeds block", cut)
		}
		torn = append(torn, block[:cut]...)
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		s := mustOpen(t, dir)
		got, err := s.QueryAll("vib/motor/rms")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 96 {
			t.Fatalf("cut=%d: recovered %d samples, want the 96 complete ones", cut, len(got))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// The truncation is physical: the file is back to its clean size.
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() != int64(len(data)) {
			t.Fatalf("cut=%d: file size %d after recovery, want %d", cut, info.Size(), len(data))
		}
	}
}

// TestInteriorCorruptionRefused: a flipped bit inside a non-final block is
// real corruption, not a torn tail, and must fail loudly (relstore's
// "valid record after malformed line" rule).
func TestInteriorCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	path := fillChannel(t, dir, 96)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the first block (well past the header).
	hdr := len(fileMagic) + 2 + len("vib/motor/rms")
	data[hdr+recordlog.Overhead] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("interior corruption accepted")
	}
}

// TestCorruptFinalBlockRefused: a full-length final block with a bad CRC
// cannot come from a torn append (the CRC is written in the same single
// write), so it too is refused.
func TestCorruptFinalBlockRefused(t *testing.T) {
	dir := t.TempDir()
	path := fillChannel(t, dir, 96)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0x01 // inside the last block's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("corrupt final block accepted")
	}
}

func TestBadHeaderRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x"+segmentExt)
	if err := os.WriteFile(path, []byte("NOTMAGIC\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("bad header accepted")
	}
}

func TestChannelFileNameEncoding(t *testing.T) {
	names := []string{
		"vib/motor drive end/rms",
		"proc/evap_pressure",
		"severity/chiller|1%weird",
	}
	seen := map[string]bool{}
	for _, n := range names {
		f := encodeChannelFile(n)
		if seen[f] {
			t.Fatalf("collision on %q", f)
		}
		seen[f] = true
		for _, c := range f {
			if c == '/' || c == 0 {
				t.Fatalf("unsafe char in %q", f)
			}
		}
	}
	// Round trip through a real store.
	dir := t.TempDir()
	s := mustOpen(t, dir)
	for _, n := range names {
		ensure(t, s, ChannelConfig{Name: n})
		if err := s.Append(n, t0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir)
	defer s2.Close()
	for _, n := range names {
		if !s2.HasChannel(n) {
			t.Fatalf("channel %q lost in round trip; have %v", n, s2.Channels())
		}
	}
}

// TestOldFormatRefused: a segment file in the MPROSHS1 block format of
// earlier versions is refused with an error naming that format, never
// misread.
func TestOldFormatRefused(t *testing.T) {
	dir := t.TempDir()
	old := []byte("MPROSHS1\x01\x00a")
	old = append(old, 0x0C, 0xB1, 0xA1, 0x5E, 1, 0, 0, 0) // block magic, count 1
	old = append(old, make([]byte, recordSize+4)...)
	if err := os.WriteFile(filepath.Join(dir, "a"+segmentExt), old, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(Options{Dir: dir})
	if err == nil || !strings.Contains(err.Error(), "MPROSHS1") {
		t.Fatalf("old-format segment file: err = %v, want a version error", err)
	}
}

// TestStaleTempRemoved: a crash mid-compaction leaves the temp file beside
// the segment file; it must not shadow the segments and is gone after
// Open.
func TestStaleTempRemoved(t *testing.T) {
	dir := t.TempDir()
	path := fillChannel(t, dir, 64)
	if err := os.WriteFile(path+".tmp", []byte("garbage from a dying process"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir)
	defer s.Close()
	got, err := s.QueryAll("vib/motor/rms")
	if err != nil || len(got) != 64 {
		t.Fatalf("recovered %d samples with a stale temp (err %v), want 64", len(got), err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("stale temp survived Open: %v", err)
	}
}

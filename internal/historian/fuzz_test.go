package historian

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// segmentFileBytes builds a realistic segment file by driving the real
// write path, for use as a fuzz seed.
func segmentFileBytes(tb testing.TB, n int) []byte {
	tb.Helper()
	dir := tb.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		tb.Fatalf("seed store: %v", err)
	}
	if err := s.EnsureChannel(ChannelConfig{Name: "ch", HeadCap: 4}); err != nil {
		tb.Fatalf("seed channel: %v", err)
	}
	for i := 0; i < n; i++ {
		if err := s.Append("ch", t0.Add(time.Duration(i)*time.Second), float64(i)); err != nil {
			tb.Fatalf("seed append: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		tb.Fatalf("close seed store: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, encodeChannelFile("ch")))
	if err != nil {
		tb.Fatalf("read seed segment file: %v", err)
	}
	return data
}

// FuzzSegmentRecover writes arbitrary bytes as a segment file and opens the
// store. Recovery must never panic. When it accepts the file, every
// recovered channel must read back sorted, and recovery must be stable: a second open after close sees the identical
// samples, because the first repaired the file in place.
func FuzzSegmentRecover(f *testing.F) {
	full := segmentFileBytes(f, 10)
	f.Add(full)
	f.Add(segmentFileBytes(f, 0)) // header only
	f.Add(full[:len(full)-3])     // torn final block
	f.Add(full[:len(fileMagic)+1])
	flipped := bytes.Clone(full)
	flipped[len(flipped)-1] ^= 0x40
	f.Add(flipped) // CRC breaks on the final block
	f.Add([]byte{})
	f.Add([]byte("MPROSHS1 is the older format"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "fuzz"+segmentExt), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Options{Dir: dir})
		if err != nil {
			return // refused input: any error is acceptable, panics are not
		}
		first := make(map[string][]Sample)
		for _, name := range s.Channels() {
			got, err := s.QueryAll(name)
			if err != nil {
				t.Fatalf("query recovered channel %q: %v", name, err)
			}
			for i := 1; i < len(got); i++ {
				if got[i].At.Before(got[i-1].At) {
					t.Fatalf("channel %q unsorted at %d", name, i)
				}
			}
			first[name] = got
		}
		if err := s.Close(); err != nil {
			t.Fatalf("close recovered store: %v", err)
		}

		s2, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("recovery not stable: reopen failed: %v", err)
		}
		defer func() { _ = s2.Close() }()
		if len(s2.Channels()) != len(first) {
			t.Fatalf("channels changed across reopen: %v then %v", len(first), s2.Channels())
		}
		for name, want := range first {
			got, err := s2.QueryAll(name)
			if err != nil || len(got) != len(want) {
				t.Fatalf("channel %q: %d samples then %d (err %v)", name, len(want), len(got), err)
			}
			for i := range got {
				if !got[i].At.Equal(want[i].At) || math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
					t.Fatalf("channel %q sample %d changed across reopen", name, i)
				}
			}
		}
	})
}

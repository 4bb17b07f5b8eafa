package recordlog

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzScan feeds arbitrary bytes to the frame scanner and to Open. Neither
// may panic. When Scan accepts a prefix, re-scanning exactly that prefix
// must yield the same frames and consume all of it; when Open accepts the
// file, its repair must be stable: a second Open sees the same frames and
// nothing torn.
func FuzzScan(f *testing.F) {
	clean := append([]byte(nil), testHeader...)
	for _, fr := range testFrames {
		clean = AppendFrame(clean, testMagic, fr.Kind, fr.Seq, fr.Body)
	}
	f.Add(clean)
	f.Add(clean[:len(clean)-3])             // torn final frame
	f.Add(clean[:len(testHeader)+fixedLen]) // torn before the first body
	f.Add(clean[:len(testHeader)])          // header only
	flipped := bytes.Clone(clean)
	flipped[len(flipped)-1] ^= 0x40
	f.Add(flipped) // CRC breaks on the final frame
	f.Add([]byte{})
	f.Add([]byte("TESTLOG1 but not really a log"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var frames []Frame
		collect := func(fr Frame) error {
			frames = append(frames, Frame{Kind: fr.Kind, Seq: fr.Seq, Body: bytes.Clone(fr.Body)})
			return nil
		}
		end, err := Scan(data, 0, testMagic, collect)
		if end < 0 || end > len(data) {
			t.Fatalf("Scan end %d outside [0, %d]", end, len(data))
		}
		if err == nil {
			first := frames
			frames = nil
			again, err := Scan(data[:end], 0, testMagic, collect)
			if err != nil || again != end || !sameFrames(first, frames) {
				t.Fatalf("accepted prefix re-scans differently: end %d then %d, err %v", end, again, err)
			}
		}

		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		frames = nil
		l, _, err := Open(path, testMagic, testHeader, readTestHeader, collect)
		if err != nil {
			return // refused input: any error is acceptable, panics are not
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		first := frames
		frames = nil
		l2, torn, err := Open(path, testMagic, testHeader, readTestHeader, collect)
		if err != nil {
			t.Fatalf("recovery not stable: reopen failed: %v", err)
		}
		defer func() { _ = l2.Close() }()
		if torn != 0 || !sameFrames(first, frames) {
			t.Fatalf("recovery not stable: torn %d, %d frames then %d", torn, len(first), len(frames))
		}
	})
}

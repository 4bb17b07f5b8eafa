package recordlog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testMagic = uint32(0x54535431) // "TST1"

var testHeader = []byte("TESTLOG1")

func readTestHeader(data []byte) (int, error) {
	if len(data) < len(testHeader) || !bytes.Equal(data[:len(testHeader)], testHeader) {
		return 0, errors.New("bad test header")
	}
	return len(testHeader), nil
}

// openCollect opens path and returns the recovered frames (bodies copied).
func openCollect(t *testing.T, path string) (*Log, []Frame, int64) {
	t.Helper()
	var got []Frame
	l, torn, err := Open(path, testMagic, testHeader, readTestHeader, func(fr Frame) error {
		got = append(got, Frame{Kind: fr.Kind, Seq: fr.Seq, Body: bytes.Clone(fr.Body)})
		return nil
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, got, torn
}

func sameFrames(a, b []Frame) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Seq != b[i].Seq || !bytes.Equal(a[i].Body, b[i].Body) {
			return false
		}
	}
	return true
}

var testFrames = []Frame{
	{Kind: 1, Seq: 1, Body: []byte("alpha")},
	{Kind: 2, Seq: 9, Body: nil},
	{Kind: 3, Seq: 4, Body: bytes.Repeat([]byte{0xAB}, 300)},
}

func writeFrames(t *testing.T, path string) []byte {
	t.Helper()
	l, got, _ := openCollect(t, path)
	if len(got) != 0 {
		t.Fatalf("fresh log recovered %d frames", len(got))
	}
	for _, fr := range testFrames {
		if err := l.Append(fr.Kind, fr.Seq, fr.Body); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestAppendReopenRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	data := writeFrames(t, path)
	want := append([]byte(nil), testHeader...)
	for _, fr := range testFrames {
		want = AppendFrame(want, testMagic, fr.Kind, fr.Seq, fr.Body)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("file bytes differ from header + AppendFrame")
	}
	l, got, torn := openCollect(t, path)
	defer func() { _ = l.Close() }()
	if torn != 0 || !sameFrames(got, testFrames) {
		t.Fatalf("recovered %+v (torn %d), want %+v", got, torn, testFrames)
	}
}

// TestTornTailEveryCut: any prefix of the final frame is a torn tail,
// truncated back to the last complete frame, and the truncation is stable.
func TestTornTailEveryCut(t *testing.T) {
	dir := t.TempDir()
	clean := writeFrames(t, filepath.Join(dir, "clean"))
	last := Overhead + len(testFrames[2].Body)
	for cut := 1; cut < last; cut++ {
		path := filepath.Join(dir, "torn")
		if err := os.WriteFile(path, clean[:len(clean)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, got, torn := openCollect(t, path)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if int(torn) != last-cut || !sameFrames(got, testFrames[:2]) {
			t.Fatalf("cut %d: recovered %d frames, torn %d", cut, len(got), torn)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() != int64(len(clean)-last) {
			t.Fatalf("cut %d: size %d after recovery, want %d", cut, info.Size(), len(clean)-last)
		}
	}
}

// TestCorruptionRefused: a damaged complete frame is refused wherever it
// sits, the final frame included.
func TestCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	clean := writeFrames(t, filepath.Join(dir, "clean"))
	first := len(testHeader)
	cases := map[string]int{
		"magic":      first,
		"kind":       first + 4,
		"body":       first + fixedLen + 1,
		"crc":        first + Overhead + len(testFrames[0].Body) - 1,
		"final body": len(clean) - 10,
		"final seq":  len(clean) - Overhead - len(testFrames[2].Body) + 6,
	}
	for name, at := range cases {
		data := bytes.Clone(clean)
		data[at] ^= 0x10
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := Open(path, testMagic, testHeader, readTestHeader, func(Frame) error { return nil })
		if err == nil || !strings.Contains(err.Error(), "corrupted") {
			t.Fatalf("%s: flipped byte accepted (err %v)", name, err)
		}
	}
}

func TestReservedSequenceAndBodyBound(t *testing.T) {
	l, _, _ := openCollect(t, filepath.Join(t.TempDir(), "log"))
	defer func() { _ = l.Close() }()
	if err := l.Append(1, ^uint64(0), nil); err == nil {
		t.Fatal("reserved sequence appended")
	}
	if err := l.Append(1, 1, make([]byte, MaxBody+1)); err == nil {
		t.Fatal("oversize body appended")
	}
	// A frame claiming the reserved sequence on disk is corruption.
	data := AppendFrame(bytes.Clone(testHeader), testMagic, 1, ^uint64(0), nil)
	if _, err := Scan(data, len(testHeader), testMagic, func(Frame) error { return nil }); err == nil {
		t.Fatal("reserved sequence scanned")
	}
}

func TestTornHeaderReplaced(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, []byte("TES"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, torn, err := Open(path, testMagic, testHeader, func([]byte) (int, error) { return 0, nil }, func(Frame) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if torn != 3 || !bytes.Equal(data, testHeader) {
		t.Fatalf("torn header: torn %d, file %q", torn, data)
	}
}

func TestRewriteReplacesAndKeepsAppending(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	writeFrames(t, path)
	l, _, _ := openCollect(t, path)
	err := l.Rewrite(func(emit func(byte, uint64, []byte) error) error {
		return emit(testFrames[2].Kind, testFrames[2].Seq, testFrames[2].Body)
	})
	if err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	if err := l.Append(7, 10, []byte("after")); err != nil {
		t.Fatalf("Append after Rewrite: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, got, _ := openCollect(t, path)
	defer func() { _ = l2.Close() }()
	want := []Frame{testFrames[2], {Kind: 7, Seq: 10, Body: []byte("after")}}
	if !sameFrames(got, want) {
		t.Fatalf("after rewrite recovered %+v", got)
	}
	if _, err := os.Stat(path + tmpSuffix); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

// TestFailedRewriteKeepsOldFile: an error from fill aborts the rewrite;
// the log keeps appending to the untouched old file.
func TestFailedRewriteKeepsOldFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	writeFrames(t, path)
	l, _, _ := openCollect(t, path)
	boom := errors.New("boom")
	if err := l.Rewrite(func(func(byte, uint64, []byte) error) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Rewrite error = %v, want boom", err)
	}
	if err := l.Append(7, 10, []byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, got, _ := openCollect(t, path)
	defer func() { _ = l2.Close() }()
	if !sameFrames(got, append(append([]Frame(nil), testFrames...), Frame{Kind: 7, Seq: 10, Body: []byte("after")})) {
		t.Fatalf("after failed rewrite recovered %+v", got)
	}
}

func TestStaleTempRemovedOnOpen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log")
	writeFrames(t, path)
	blob := filepath.Join(dir, "blob")
	if err := WriteBlob(blob, "BLOBMAG1", 5, []byte("state")); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{path, blob} {
		if err := os.WriteFile(p+tmpSuffix, []byte("garbage from a dying process"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, got, _ := openCollect(t, path)
	defer func() { _ = l.Close() }()
	if !sameFrames(got, testFrames) {
		t.Fatalf("stale temp shadowed the log: %+v", got)
	}
	if _, _, ok, err := ReadBlob(blob, "BLOBMAG1"); !ok || err != nil {
		t.Fatalf("ReadBlob with stale temp: ok=%v err=%v", ok, err)
	}
	for _, p := range []string{path, blob} {
		if _, err := os.Stat(p + tmpSuffix); !os.IsNotExist(err) {
			t.Fatalf("stale temp of %s survived open", p)
		}
	}
}

func TestBlobRoundTripAndCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blob")
	if _, _, ok, err := ReadBlob(path, "BLOBMAG1"); ok || err != nil {
		t.Fatalf("missing blob: ok=%v err=%v", ok, err)
	}
	if err := WriteBlob(path, "BLOBMAG1", 42, []byte("snapshot")); err != nil {
		t.Fatal(err)
	}
	seq, body, ok, err := ReadBlob(path, "BLOBMAG1")
	if err != nil || !ok || seq != 42 || string(body) != "snapshot" {
		t.Fatalf("ReadBlob = (%d, %q, %v, %v)", seq, body, ok, err)
	}
	clean, _ := os.ReadFile(path)
	for i := range clean {
		data := bytes.Clone(clean)
		data[i] ^= 0x01
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := ReadBlob(path, "BLOBMAG1"); err == nil {
			t.Fatalf("blob with byte %d flipped accepted", i)
		}
	}
	if err := os.WriteFile(path, clean[:len(clean)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ReadBlob(path, "BLOBMAG1"); err == nil {
		t.Fatal("truncated blob accepted")
	}
}

func TestFileNameEscaping(t *testing.T) {
	cases := map[string]string{
		"dc-1":             "dc-1.x",
		"vib/motor rms":    "vib%2Fmotor%20rms.x",
		"a%b":              "a%25b.x",
		"chiller/1|x.y_z-": "chiller%2F1%7Cx.y_z-.x",
	}
	for key, want := range cases {
		if got := FileName(key, ".x"); got != want {
			t.Errorf("FileName(%q) = %q, want %q", key, got, want)
		}
	}
}

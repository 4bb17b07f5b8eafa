// Package recordlog is the one implementation of how an MPROS store stays
// durable on disk. The PDME journal, the uplink spool, the historian's
// segment files and relstore's log are thin codecs over it: each owns its
// file header, its record kinds, its body encoding and its fsync cadence;
// this package owns the frame, the recovery policy and file replacement.
//
// Frame layout (all integers little-endian):
//
//	u32 magic | u8 kind | u64 seq | u32 len | body | u32 crc32(kind..body)
//
// The magic is a per-store format constant, so a frame of one store can
// never be mistaken for another's. Every frame is appended in a single
// write, which gives one recovery policy for every store:
//
//   - a final frame shorter than its fixed fields or its declared length is
//     a torn tail (power loss mid-append): it is truncated away and the
//     truncation fsynced;
//   - a complete frame with a bad magic, a body over MaxBody, the reserved
//     sequence ^uint64(0), or a bad CRC is interior corruption: the file is
//     refused. A torn single-write append leaves a short frame, never a
//     full-length one with a bad CRC, so this holds even at the tail.
//
// Whole-file replacement (compaction, checkpoints) is always temp file →
// fsync → rename → directory fsync, and a leftover temp file from a crash
// mid-replace is removed when the file is next opened.
package recordlog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
)

const (
	// Overhead is the frame bytes around a body.
	Overhead = fixedLen + 4
	// MaxBody bounds a frame body. It exists so a corrupted length field
	// cannot drive a giant allocation, and a writer cannot produce a frame
	// recovery would refuse.
	MaxBody = 1 << 20
	// maxBlob bounds a blob body (see WriteBlob), far above any real
	// snapshot.
	maxBlob = 1 << 28

	fixedLen  = 4 + 1 + 8 + 4 // magic + kind + seq + len: the bytes before the body
	tmpSuffix = ".tmp"
)

// Frame is one record: a store-defined kind byte, a sequence and a body.
// Frames handed out by Open alias the file contents read for recovery;
// copy a body that must outlive the callback.
type Frame struct {
	Kind byte
	Seq  uint64
	Body []byte
}

// AppendFrame appends the on-disk form of one frame to dst.
func AppendFrame(dst []byte, magic uint32, kind byte, seq uint64, body []byte) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, magic)
	dst = append(dst, kind)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	dst = append(dst, body...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start+4:]))
}

// checkFrame refuses what no writer may put in a frame.
func checkFrame(seq uint64, body []byte) error {
	if len(body) > MaxBody {
		return fmt.Errorf("record body %d exceeds limit %d", len(body), MaxBody)
	}
	if seq == ^uint64(0) {
		return fmt.Errorf("reserved record sequence %d", seq)
	}
	return nil
}

// Scan walks the frames of data from offset off, calling fn for each
// complete one in file order, and returns the end of the last complete
// frame: len(data) for a clean file, less when the final frame is torn.
// Interior corruption and errors from fn are returned with the offset of
// the frame at fault.
func Scan(data []byte, off int, magic uint32, fn func(Frame) error) (int, error) {
	for off < len(data) {
		rest := data[off:]
		if len(rest) < fixedLen {
			return off, nil // torn: not even the fixed fields before the body
		}
		if binary.LittleEndian.Uint32(rest) != magic {
			return off, fmt.Errorf("bad record magic at offset %d (corrupted)", off)
		}
		seq := binary.LittleEndian.Uint64(rest[5:])
		if seq == ^uint64(0) {
			// A legitimate writer never reaches the last sequence; accepting
			// it would overflow a next-sequence watermark back to zero.
			return off, fmt.Errorf("implausible sequence at offset %d (corrupted)", off)
		}
		n := binary.LittleEndian.Uint32(rest[13:])
		if n > MaxBody {
			return off, fmt.Errorf("implausible record body %d at offset %d (corrupted)", n, off)
		}
		end := fixedLen + int(n)
		if len(rest) < end+4 {
			return off, nil // torn: the final frame never finished its write
		}
		if crc32.ChecksumIEEE(rest[4:end]) != binary.LittleEndian.Uint32(rest[end:]) {
			return off, fmt.Errorf("record CRC mismatch at offset %d (corrupted)", off)
		}
		if err := fn(Frame{Kind: rest[4], Seq: seq, Body: rest[fixedLen:end:end]}); err != nil {
			return off, fmt.Errorf("record at offset %d: %w", off, err)
		}
		off += end + 4
	}
	return off, nil
}

// Log is one append-only record file: a store-owned header, then frames.
// It is not safe for concurrent use; the owning store serializes calls.
type Log struct {
	path   string
	magic  uint32
	header []byte // rewritten verbatim by Rewrite
	f      *os.File
	buf    []byte // frame scratch, reused across appends
}

// Open opens the record file at path for appending, recovering what it
// holds. A leftover temp file from an interrupted Rewrite is removed first.
//
// A missing or empty file is created with header. An existing file is
// handed whole to readHeader, which returns the length of its header or
// refuses it; a length of 0 means the header itself never finished its
// first write, so the whole file is a torn tail and is replaced by header.
// Each complete frame after the header then goes to fn in file order. A
// torn tail is truncated and fsynced, and its length returned.
//
// Open fsyncs nothing else: a store that needs a new file's header durable
// before its first append calls Sync.
func Open(path string, magic uint32, header []byte, readHeader func(data []byte) (int, error), fn func(Frame) error) (*Log, int64, error) {
	if err := removeTemp(path); err != nil {
		return nil, 0, err
	}
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, 0, fmt.Errorf("read %s: %w", path, err)
	}
	l := &Log{path: path, magic: magic, header: header}
	valid := 0
	if len(data) > 0 {
		n, err := readHeader(data)
		if err != nil {
			return nil, 0, err
		}
		if n > 0 {
			l.header = append([]byte(nil), data[:n]...)
			if valid, err = Scan(data, n, magic, fn); err != nil {
				return nil, 0, fmt.Errorf("%s: %w", path, err)
			}
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("open %s: %w", path, err)
	}
	l.f = f
	torn := int64(len(data) - valid)
	if torn > 0 {
		if err := f.Truncate(int64(valid)); err != nil {
			_ = f.Close() // best effort: the truncate error is the story
			return nil, 0, fmt.Errorf("truncate torn tail of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			_ = f.Close() // best effort: the sync error is the story
			return nil, 0, fmt.Errorf("sync truncated %s: %w", path, err)
		}
	}
	if valid == 0 {
		if _, err := f.Write(l.header); err != nil {
			_ = f.Close() // best effort: the write error is the story
			return nil, 0, fmt.Errorf("write header of %s: %w", path, err)
		}
	}
	return l, torn, nil
}

var errClosed = errors.New("record log closed")

// Append writes one frame in a single write. It does not fsync: the caller
// decides when to Sync.
func (l *Log) Append(kind byte, seq uint64, body []byte) error {
	if l.f == nil {
		return errClosed
	}
	if err := checkFrame(seq, body); err != nil {
		return err
	}
	l.buf = AppendFrame(l.buf[:0], l.magic, kind, seq, body)
	if _, err := l.f.Write(l.buf); err != nil {
		return fmt.Errorf("append to %s: %w", l.path, err)
	}
	return nil
}

// Sync fsyncs the file.
func (l *Log) Sync() error {
	if l.f == nil {
		return errClosed
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("sync %s: %w", l.path, err)
	}
	return nil
}

// Close closes the file without syncing it; the log is unusable afterwards
// and a second Close is a no-op.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	if err != nil {
		return fmt.Errorf("close %s: %w", l.path, err)
	}
	return nil
}

// Rewrite atomically replaces the file with its header followed by the
// frames fill emits, then reopens it for append. A crash at any point
// leaves either the old file or the new one; a failure before the rename
// leaves the log appending to the old file.
func (l *Log) Rewrite(fill func(emit func(kind byte, seq uint64, body []byte) error) error) error {
	if l.f == nil {
		return errClosed
	}
	committed, err := replace(l.path, func(w *bufio.Writer) error {
		if _, err := w.Write(l.header); err != nil {
			return err
		}
		var buf []byte
		return fill(func(kind byte, seq uint64, body []byte) error {
			if err := checkFrame(seq, body); err != nil {
				return err
			}
			buf = AppendFrame(buf[:0], l.magic, kind, seq, body)
			_, err := w.Write(buf)
			return err
		})
	})
	if !committed {
		return err
	}
	// The new file is in place and the old handle points at the replaced
	// one: swap it whatever else went wrong.
	_ = l.f.Close() // best effort: its file is gone from the directory
	l.f = nil
	nf, oerr := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if oerr != nil {
		return errors.Join(err, fmt.Errorf("reopen %s: %w", l.path, oerr))
	}
	l.f = nf
	return err
}

// WriteBlob atomically replaces path with one standalone blob:
//
//	magic | u64 seq | u32 len | body | u32 crc32(seq..body)
//
// the form of a snapshot pinned to the sequence watermark it covers.
func WriteBlob(path, magic string, seq uint64, body []byte) error {
	if len(body) > maxBlob {
		return fmt.Errorf("blob body %d exceeds limit %d", len(body), maxBlob)
	}
	if seq == ^uint64(0) {
		return fmt.Errorf("reserved blob sequence %d", seq)
	}
	buf := make([]byte, 0, len(magic)+8+4+len(body)+4)
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(body)))
	buf = append(buf, body...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[len(magic):]))
	_, err := replace(path, func(w *bufio.Writer) error {
		_, err := w.Write(buf)
		return err
	})
	return err
}

// ReadBlob loads and verifies a blob written by WriteBlob; ok is false when
// there is none. A leftover temp file from an interrupted WriteBlob is
// removed. Blobs are replaced atomically, so anything present but
// malformed is external corruption and is refused, never truncated.
func ReadBlob(path, magic string) (seq uint64, body []byte, ok bool, err error) {
	if err := removeTemp(path); err != nil {
		return 0, nil, false, err
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil, false, nil
	}
	if err != nil {
		return 0, nil, false, fmt.Errorf("read %s: %w", path, err)
	}
	hdr := len(magic) + 8 + 4
	if len(data) < hdr+4 {
		return 0, nil, false, fmt.Errorf("%s: truncated blob (corrupted)", path)
	}
	if string(data[:len(magic)]) != magic {
		return 0, nil, false, fmt.Errorf("%s: bad blob magic (corrupted)", path)
	}
	seq = binary.LittleEndian.Uint64(data[len(magic):])
	if seq == ^uint64(0) {
		return 0, nil, false, fmt.Errorf("%s: implausible blob sequence (corrupted)", path)
	}
	n := binary.LittleEndian.Uint32(data[len(magic)+8:])
	if n > maxBlob || len(data) != hdr+int(n)+4 {
		return 0, nil, false, fmt.Errorf("%s: blob length mismatch (corrupted)", path)
	}
	end := hdr + int(n)
	if crc32.ChecksumIEEE(data[len(magic):end]) != binary.LittleEndian.Uint32(data[end:]) {
		return 0, nil, false, fmt.Errorf("%s: blob CRC mismatch (corrupted)", path)
	}
	return seq, data[hdr:end:end], true, nil
}

// replace atomically replaces path with what write produces: temp file,
// fsync, rename, directory fsync. committed reports whether the rename
// happened, so a caller holding the old file knows it has been replaced even
// when the directory fsync fails.
func replace(path string, write func(w *bufio.Writer) error) (committed bool, err error) {
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return false, fmt.Errorf("create %s: %w", tmp, err)
	}
	w := bufio.NewWriter(f)
	err = write(w)
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp) // best effort: the next open removes it anyway
		return false, fmt.Errorf("replace %s: %w", path, err)
	}
	return true, syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-committed rename survives power
// loss, not merely process death.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("open dir %s for sync: %w", dir, err)
	}
	if err := d.Sync(); err != nil {
		_ = d.Close() // best effort: the sync error is the story
		return fmt.Errorf("sync dir %s: %w", dir, err)
	}
	return d.Close()
}

// removeTemp deletes the temp file a crash mid-replace left beside path;
// the rename never happened, so it is dead weight.
func removeTemp(path string) error {
	if err := os.Remove(path + tmpSuffix); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("clear stale temp of %s: %w", path, err)
	}
	return nil
}

// FileName maps a store key (a channel name, a DC id) to a file name safe
// on any filesystem, escaping every byte outside [A-Za-z0-9._-] as %XX, so
// distinct keys never share a file, and appends ext.
func FileName(key, ext string) string {
	var b strings.Builder
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	return b.String() + ext
}

// Package journal is the PDME's durability substrate: a write-ahead log of
// accepted envelopes plus an atomically-replaced checkpoint of the derived
// state, so a SIGKILL'd engine recovers by checkpoint-load + tail-replay
// instead of losing the fleet's diagnosis.
//
// Layering: this package knows nothing about reports, heartbeats, or fusion.
// Records are (kind, body) blobs under a monotonically increasing journal
// sequence (jseq); the checkpoint is an opaque blob pinned to the jseq
// watermark it covers. The PDME owns both encodings.
//
// WAL file format (append-only, one file per journal dir):
//
//	header:  magic "MPROSWJ1"
//	records: u32 recMagic | u8 kind | u64 jseq | u32 bodyLen | body | u32 crc
//
// Checkpoint file format (whole file replaced via temp + rename):
//
//	magic "MPROSCK1" | u64 jseq | u32 bodyLen | body | u32 crc
//
// Both are recordlog files: the WAL's records are recordlog frames under
// recMagic, the checkpoint is a recordlog blob. Every WAL record is
// appended in a single write and fsynced before Append returns, so
// recordlog's recovery policy applies: an incomplete final record is a torn
// tail (truncate and continue); a complete record with a bad magic or CRC
// is interior corruption (refuse the file). On top of it the journal
// refuses a non-ascending jseq as corruption.
//
// After a checkpoint commits (rename + dir sync) the WAL is compacted to
// the records above the watermark, itself via temp + rename. A crash
// between the two renames leaves stale records (jseq ≤ watermark) in the
// WAL; recovery skips them by sequence, so the pair of files is consistent
// no matter where the crash lands.
package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/recordlog"
)

const (
	walName  = "wal.mprosj"
	ckptName = "checkpoint.mprosc"

	walMagic  = "MPROSWJ1"
	ckptMagic = "MPROSCK1"

	recMagic = uint32(0x4A524E31) // "JRN1"
)

// Record is one journaled envelope: an opaque body under a caller-chosen
// kind byte and the jseq the journal assigned at append time.
type Record struct {
	Seq  uint64
	Kind byte
	Body []byte
}

// Recovery reports what Open found on disk: the durable checkpoint blob
// (nil when none has ever been written), the watermark it covers, the live
// WAL tail (records above the watermark, in append order), and how many
// torn bytes were truncated from the WAL.
type Recovery struct {
	Checkpoint    []byte
	CheckpointSeq uint64
	Tail          []Record
	TornBytes     int64
}

// Journal is a single-writer WAL + checkpoint pair rooted in one
// directory. Safe for concurrent use; Append, WriteCheckpoint, and Close
// serialize internally.
type Journal struct {
	mu     sync.Mutex
	dir    string
	wal    *recordlog.Log
	closed bool

	nextSeq uint64
	ckpt    uint64 // watermark of the durable checkpoint (0 = none)
	// tail mirrors the WAL records above the checkpoint watermark so
	// compaction can rewrite the file without re-reading it. Bounded by the
	// owner's checkpoint cadence.
	tail []Record
}

// Open opens (creating if needed) the journal in dir, recovering the
// checkpoint and WAL tail. A torn WAL tail is truncated; interior
// corruption in either file is refused with an error. Leftover temp files
// from a crash mid-replace are removed.
func Open(dir string) (*Journal, *Recovery, error) {
	if dir == "" {
		return nil, nil, fmt.Errorf("journal: empty dir")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: create dir: %w", err)
	}
	j := &Journal{dir: dir, nextSeq: 1}
	rec := &Recovery{}

	ckptSeq, blob, ok, err := recordlog.ReadBlob(filepath.Join(dir, ckptName), ckptMagic)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: checkpoint: %w", err)
	}
	if ok {
		if ckptSeq == 0 {
			return nil, nil, fmt.Errorf("journal: implausible checkpoint watermark 0 (corrupted)")
		}
		j.ckpt = ckptSeq
		j.nextSeq = ckptSeq + 1
		rec.Checkpoint = blob
		rec.CheckpointSeq = ckptSeq
	}

	prevSeq := uint64(0)
	wal, torn, err := recordlog.Open(filepath.Join(dir, walName), recMagic, []byte(walMagic),
		func(data []byte) (int, error) {
			if len(data) < len(walMagic) {
				// The header never finished its first write; no record can
				// exist, so the whole file is torn.
				return 0, nil
			}
			if string(data[:len(walMagic)]) != walMagic {
				return 0, fmt.Errorf("%s: bad wal magic (corrupted)", filepath.Join(dir, walName))
			}
			return len(walMagic), nil
		},
		func(fr recordlog.Frame) error {
			if fr.Seq <= prevSeq {
				// The writer assigns strictly ascending jseqs; a regression
				// is not something a torn single-write append can produce.
				return errors.New("non-ascending sequence (corrupted)")
			}
			prevSeq = fr.Seq
			if fr.Seq > j.ckpt {
				// Records at or below the watermark are a crash between the
				// checkpoint rename and the WAL compaction: already covered.
				j.tail = append(j.tail, Record{Seq: fr.Seq, Kind: fr.Kind, Body: append([]byte(nil), fr.Body...)})
			}
			return nil
		})
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	// A fresh header must be durable before the first record lands behind
	// it; on a recovered file this finds nothing dirty.
	if err := wal.Sync(); err != nil {
		_ = wal.Close() // best effort: the sync error is the story
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	if prevSeq >= j.nextSeq {
		j.nextSeq = prevSeq + 1
	}
	j.wal = wal
	rec.TornBytes = torn
	rec.Tail = append([]Record(nil), j.tail...)
	return j, rec, nil
}

// Append frames, writes, and fsyncs one record, returning its jseq. The
// record is durable when Append returns — callers mutate derived state
// only after.
func (j *Journal) Append(kind byte, body []byte) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, fmt.Errorf("journal: closed")
	}
	seq := j.nextSeq
	if err := j.wal.Append(kind, seq, body); err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	if err := j.wal.Sync(); err != nil {
		return 0, fmt.Errorf("journal: fsync append: %w", err)
	}
	j.nextSeq = seq + 1
	j.tail = append(j.tail, Record{Seq: seq, Kind: kind, Body: append([]byte(nil), body...)})
	return seq, nil
}

// WriteCheckpoint durably replaces the checkpoint with blob covering every
// record with jseq ≤ seq, then compacts the WAL down to the records above
// seq. The checkpoint commits at the rename: a crash before it keeps the
// old checkpoint, a crash after it but before the WAL compaction leaves
// stale records that recovery skips by sequence.
func (j *Journal) WriteCheckpoint(seq uint64, blob []byte) error {
	if seq == 0 || seq == ^uint64(0) {
		return fmt.Errorf("journal: implausible checkpoint watermark %d", seq)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: closed")
	}
	if seq >= j.nextSeq {
		return fmt.Errorf("journal: checkpoint watermark %d beyond last append %d", seq, j.nextSeq-1)
	}
	if seq < j.ckpt {
		return fmt.Errorf("journal: checkpoint watermark %d behind durable checkpoint %d", seq, j.ckpt)
	}
	if err := recordlog.WriteBlob(filepath.Join(j.dir, ckptName), ckptMagic, seq, blob); err != nil {
		return fmt.Errorf("journal: checkpoint: %w", err)
	}
	j.ckpt = seq
	return j.compactLocked()
}

// compactLocked rewrites the WAL with only the records above the
// checkpoint watermark. Requires j.mu.
func (j *Journal) compactLocked() error {
	live := j.tail[:0]
	for _, r := range j.tail {
		if r.Seq > j.ckpt {
			live = append(live, r)
		}
	}
	j.tail = live
	err := j.wal.Rewrite(func(emit func(kind byte, seq uint64, body []byte) error) error {
		for _, r := range j.tail {
			if err := emit(r.Kind, r.Seq, r.Body); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("journal: compact wal: %w", err)
	}
	return nil
}

// LastSeq returns the jseq of the most recent append (0 before any).
func (j *Journal) LastSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.nextSeq - 1
}

// CheckpointSeq returns the durable checkpoint watermark (0 when none).
func (j *Journal) CheckpointSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ckpt
}

// SinceCheckpoint returns how many records sit above the durable
// checkpoint — the tail a crash right now would have to replay.
func (j *Journal) SinceCheckpoint() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.tail)
}

// Close syncs and closes the WAL. The journal is unusable afterwards.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if err := j.wal.Sync(); err != nil {
		_ = j.wal.Close() // best effort: the sync error is the story
		return fmt.Errorf("journal: sync on close: %w", err)
	}
	if err := j.wal.Close(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

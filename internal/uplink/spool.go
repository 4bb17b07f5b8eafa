package uplink

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/proto"
	"repro/internal/recordlog"
)

// Spool file format (one file per uplink, append-only):
//
//	header: magic "MPROSUP2" | u64 boot | u16 dcidLen | dcid bytes
//	records: recordlog frames under recMagic
//
// All integers little-endian. Record kinds:
//
//	recReport  — body is the JSON report; the sequence is its delivery id
//	recAck     — the report with this sequence was acked by the PDME
//	recDrop    — the report was dropped by the capacity policy (still final)
//	recSeqMark — sequence watermark written on compaction so monotonic ids
//	             survive a rewrite that leaves no report records behind
//	recSummary — body is a JSON fused summary (PDME→PDME forwarding); it
//	             shares the report sequence space, so one spool carries both
//	             kinds in FIFO order under one dedup window
//
// Records are appended without an fsync of their own (close syncs), and
// recovery is recordlog's: an incomplete final record is a torn tail
// (truncate and continue); a complete record with a bad magic or CRC is
// interior corruption (refuse the file).
//
// The boot id names the sequence-counter incarnation on the wire (see
// proto.Dedup): a persistent spool keeps it for the file's lifetime, so
// replayed sequences stay deduplicable across DC restarts; an in-memory
// spool draws a fresh one per process, telling the PDME its restarted
// counter is not a replay.
const (
	spoolMagic = "MPROSUP2"
	recMagic   = uint32(0x5B001ED0)

	recReport  = byte(1)
	recAck     = byte(2)
	recDrop    = byte(3)
	recSeqMark = byte(4)
	recSummary = byte(5)

	// compactEvery bounds resolved (acked/dropped) records retained in the
	// file before it is rewritten with only pending reports.
	compactEvery = 512
)

// pendingRec is one spooled frame awaiting ack: a report or, on the
// PDME→PDME forwarding path, a fused summary (exactly one of the two is
// set).
type pendingRec struct {
	seq     uint64
	report  *proto.Report
	summary *proto.FusedSummary
	// attempts counts sends tried so far; recovered marks a frame replayed
	// from disk after a process restart. Both feed the Replayed counter.
	attempts  int
	recovered bool
}

// recType returns the spool record type for the frame this rec carries.
func (rec *pendingRec) recType() byte {
	if rec.summary != nil {
		return recSummary
	}
	return recReport
}

// marshalBody encodes the frame this rec carries for spooling.
func (rec *pendingRec) marshalBody() ([]byte, error) {
	if rec.summary != nil {
		return json.Marshal(rec.summary)
	}
	return json.Marshal(rec.report)
}

// spool is the uplink's store-and-forward queue: every outbound report is
// appended before the first send attempt (write-ahead), and retired by an
// ack record once the PDME confirms it, so anything in flight when the DC
// process dies replays on the next start. With an empty dir the spool is a
// volatile in-memory queue with the same interface.
type spool struct {
	log  *recordlog.Log // nil for in-memory
	cap  int
	boot uint64 // sequence-counter incarnation announced on the wire

	nextSeq  uint64
	pending  []*pendingRec // oldest first
	resolved int           // resolved records in the file since last compact
}

// newBootID draws a random boot incarnation id; zero is reserved for
// untagged frames.
func newBootID() (uint64, error) {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return 0, fmt.Errorf("uplink: draw boot id: %w", err)
	}
	id := binary.LittleEndian.Uint64(b[:])
	if id == 0 {
		id = 1
	}
	return id, nil
}

// encodeSpoolFile maps a DC id to a filesystem-safe spool file name.
func encodeSpoolFile(dcid string) string {
	return recordlog.FileName(dcid, ".spool")
}

// openSpool opens (recovering) or creates the spool for dcid under dir.
// An empty dir yields an in-memory spool.
func openSpool(dir, dcid string, capacity int) (*spool, error) {
	if capacity <= 0 {
		capacity = DefaultSpoolCap
	}
	s := &spool{cap: capacity, nextSeq: 1}
	// A fresh file gets a fresh boot id; a recovered one keeps its own.
	boot, err := newBootID()
	if err != nil {
		return nil, err
	}
	s.boot = boot
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("uplink: create spool dir: %w", err)
	}
	if err := s.recover(filepath.Join(dir, encodeSpoolFile(dcid)), dcid); err != nil {
		return nil, err
	}
	// Start compacted: resolved records recovered from a previous run carry
	// no information once pending is rebuilt.
	if s.resolved > 0 {
		if err := s.compact(); err != nil {
			_ = s.log.Close() // best effort: the compaction error is the story
			return nil, err
		}
	}
	return s, nil
}

// recover opens the spool file at path, reading back pending reports, the
// sequence watermark, and the resolved-record count. A torn tail is
// truncated; a header or interior record that is present but wrong is
// refused.
func (s *spool) recover(path, dcid string) error {
	hdr := make([]byte, 0, len(spoolMagic)+8+2+len(dcid))
	hdr = append(hdr, spoolMagic...)
	hdr = binary.LittleEndian.AppendUint64(hdr, s.boot)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(dcid)))
	hdr = append(hdr, dcid...)

	frames := make(map[uint64]*pendingRec)
	var order []uint64
	resolved := make(map[uint64]bool)
	var maxSeq uint64
	log, _, err := recordlog.Open(path, recMagic, hdr,
		func(data []byte) (int, error) {
			if len(data) < len(spoolMagic)+8+2 {
				return 0, fmt.Errorf("%s: truncated header", path)
			}
			if string(data[:len(spoolMagic)]) != spoolMagic {
				return 0, fmt.Errorf("%s: bad file magic", path)
			}
			s.boot = binary.LittleEndian.Uint64(data[len(spoolMagic):])
			idLen := int(binary.LittleEndian.Uint16(data[len(spoolMagic)+8:]))
			off := len(spoolMagic) + 8 + 2
			if len(data) < off+idLen {
				return 0, fmt.Errorf("%s: truncated DC id", path)
			}
			if got := string(data[off : off+idLen]); got != dcid {
				return 0, fmt.Errorf("%s: spool belongs to DC %q, not %q", path, got, dcid)
			}
			return off + idLen, nil
		},
		func(fr recordlog.Frame) error {
			if fr.Seq > maxSeq {
				maxSeq = fr.Seq
			}
			rec := &pendingRec{seq: fr.Seq, recovered: true}
			switch fr.Kind {
			case recReport:
				rec.report = new(proto.Report)
				if err := json.Unmarshal(fr.Body, rec.report); err != nil {
					return fmt.Errorf("undecodable report: %w", err)
				}
			case recSummary:
				rec.summary = new(proto.FusedSummary)
				if err := json.Unmarshal(fr.Body, rec.summary); err != nil {
					return fmt.Errorf("undecodable summary: %w", err)
				}
			case recAck, recDrop:
				resolved[fr.Seq] = true
				return nil
			case recSeqMark:
				return nil // watermark only: maxSeq already advanced above
			default:
				return fmt.Errorf("unknown record type %d (corrupted spool)", fr.Kind)
			}
			if _, dup := frames[fr.Seq]; !dup {
				frames[fr.Seq] = rec
				order = append(order, fr.Seq)
			}
			return nil
		})
	if err != nil {
		return fmt.Errorf("uplink: spool: %w", err)
	}
	s.log = log
	for _, seq := range order {
		if resolved[seq] {
			s.resolved++
			continue
		}
		s.pending = append(s.pending, frames[seq])
	}
	s.nextSeq = maxSeq + 1
	return nil
}

// appendRecord writes one framed record in a single write.
func (s *spool) appendRecord(typ byte, seq uint64, body []byte) error {
	if s.log == nil {
		return nil
	}
	if err := s.log.Append(typ, seq, body); err != nil {
		return fmt.Errorf("uplink: spool: %w", err)
	}
	return nil
}

// add assigns the next sequence to the report and appends it (write-ahead:
// the spool entry exists before the first send attempt). When the pending
// queue exceeds capacity the oldest frames are dropped; their sequences
// are returned so the caller can count them.
func (s *spool) add(r *proto.Report) (seq uint64, droppedSeqs []uint64, err error) {
	return s.enqueue(&pendingRec{report: r})
}

// addSummary spools one PDME→PDME fused summary; it shares the report
// sequence space and capacity policy, so a single FIFO drains both kinds.
func (s *spool) addSummary(sum *proto.FusedSummary) (seq uint64, droppedSeqs []uint64, err error) {
	return s.enqueue(&pendingRec{summary: sum})
}

func (s *spool) enqueue(rec *pendingRec) (seq uint64, droppedSeqs []uint64, err error) {
	rec.seq = s.nextSeq
	s.nextSeq++
	body, err := rec.marshalBody()
	if err != nil {
		return 0, nil, fmt.Errorf("uplink: encode spool frame: %w", err)
	}
	if err := s.appendRecord(rec.recType(), rec.seq, body); err != nil {
		return 0, nil, err
	}
	s.pending = append(s.pending, rec)
	for len(s.pending) > s.cap {
		oldest := s.pending[0]
		s.pending = s.pending[1:]
		droppedSeqs = append(droppedSeqs, oldest.seq)
		if err := s.appendRecord(recDrop, oldest.seq, nil); err != nil {
			return 0, nil, err
		}
		s.resolved++
	}
	if err := s.maybeCompact(); err != nil {
		return 0, nil, err
	}
	return rec.seq, droppedSeqs, nil
}

// peek returns the oldest pending report without removing it.
func (s *spool) peek() (*pendingRec, bool) {
	if len(s.pending) == 0 {
		return nil, false
	}
	return s.pending[0], true
}

// resolve retires an acked (or permanently rejected) sequence.
func (s *spool) resolve(seq uint64) error {
	for i, rec := range s.pending {
		if rec.seq == seq {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			break
		}
	}
	if err := s.appendRecord(recAck, seq, nil); err != nil {
		return err
	}
	s.resolved++
	return s.maybeCompact()
}

func (s *spool) maybeCompact() error {
	if s.log == nil || s.resolved < compactEvery {
		return nil
	}
	return s.compact()
}

// compact rewrites the file with only pending reports plus a sequence
// watermark; the rewrite is atomic, so a crash mid-compaction leaves either
// the old or the new file intact.
func (s *spool) compact() error {
	err := s.log.Rewrite(func(emit func(kind byte, seq uint64, body []byte) error) error {
		if s.nextSeq > 1 {
			if err := emit(recSeqMark, s.nextSeq-1, nil); err != nil {
				return err
			}
		}
		for _, rec := range s.pending {
			body, err := rec.marshalBody()
			if err != nil {
				return err
			}
			if err := emit(rec.recType(), rec.seq, body); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("uplink: compact spool: %w", err)
	}
	s.resolved = 0
	return nil
}

// close syncs and closes the spool file; pending reports stay on disk for
// the next open.
func (s *spool) close() error {
	if s.log == nil {
		return nil
	}
	if err := s.log.Sync(); err != nil {
		_ = s.log.Close() // best effort: the sync error is the story
		return fmt.Errorf("uplink: spool: %w", err)
	}
	return s.log.Close()
}

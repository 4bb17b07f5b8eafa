package historian

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/recordlog"
)

// Segment file format (one file per channel, append-only):
//
//	header: magic "MPROSHS2" | u16 nameLen | name bytes
//	blocks: recordlog frames under blockMagic, kind kindBlock, seq 0,
//	        body count×(i64 unixnano, f64 bits)
//
// All integers little-endian. Each sealed segment is appended as exactly
// one frame in a single write, and recovery is recordlog's: a torn final
// block is truncated to the last complete one; a complete block with a bad
// magic or CRC is interior corruption and the file is refused. Files in the
// older MPROSHS1 block format are refused with a version error, never
// misread.

const (
	segmentExt  = ".hseg"
	fileMagic   = "MPROSHS2"
	oldMagic    = "MPROSHS1"
	blockMagic  = uint32(0x5EA1B10C)
	kindBlock   = byte(1)
	recordSize  = 16 // i64 nanos + f64 value
	maxHeadCap  = recordlog.MaxBody / recordSize
	nameLenSize = 2
)

// segment is an immutable sorted run of samples.
type segment struct {
	samples      []Sample // sorted ascending by At
	minAt, maxAt time.Time
}

func newSegment(sorted []Sample) *segment {
	return &segment{
		samples: sorted,
		minAt:   sorted[0].At,
		maxAt:   sorted[len(sorted)-1].At,
	}
}

// slice returns the sub-run overlapping [from, to] (zero bounds are open).
func (g *segment) slice(from, to time.Time) []Sample {
	lo := 0
	if !from.IsZero() {
		lo = sort.Search(len(g.samples), func(i int) bool {
			return !g.samples[i].At.Before(from)
		})
	}
	hi := len(g.samples)
	if !to.IsZero() {
		hi = sort.Search(len(g.samples), func(i int) bool {
			return g.samples[i].At.After(to)
		})
	}
	if lo >= hi {
		return nil
	}
	return g.samples[lo:hi]
}

// encodeChannelFile maps a channel name to a filesystem-safe file name
// (the header name is authoritative on recovery).
func encodeChannelFile(name string) string {
	return recordlog.FileName(name, segmentExt)
}

// encodeBlock is the frame body of one sealed segment.
func encodeBlock(samples []Sample) []byte {
	buf := make([]byte, 0, len(samples)*recordSize)
	for _, s := range samples {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.At.UnixNano()))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.Value))
	}
	return buf
}

// openSegmentFile opens the segment file at path, creating it for channel
// name when absent, and recovers its channel name and sealed segments. A
// non-empty name must match the one the file holds.
func openSegmentFile(path, name string) (string, []*segment, *recordlog.Log, error) {
	hdr := make([]byte, 0, len(fileMagic)+nameLenSize+len(name))
	hdr = append(hdr, fileMagic...)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(name)))
	hdr = append(hdr, name...)
	var segments []*segment
	log, _, err := recordlog.Open(path, blockMagic, hdr,
		func(data []byte) (int, error) {
			if len(data) >= len(oldMagic) && string(data[:len(oldMagic)]) == oldMagic {
				return 0, fmt.Errorf("%s: segment file in the older %s format; move it aside", path, oldMagic)
			}
			if len(data) < len(fileMagic)+nameLenSize {
				return 0, fmt.Errorf("%s: truncated header", path)
			}
			if string(data[:len(fileMagic)]) != fileMagic {
				return 0, fmt.Errorf("%s: bad file magic", path)
			}
			off := len(fileMagic) + nameLenSize
			end := off + int(binary.LittleEndian.Uint16(data[len(fileMagic):]))
			if len(data) < end {
				return 0, fmt.Errorf("%s: truncated channel name", path)
			}
			if end == off {
				return 0, fmt.Errorf("%s: empty channel name", path)
			}
			if got := string(data[off:end]); name == "" {
				name = got
			} else if got != name {
				return 0, fmt.Errorf("%s: file holds channel %q, not %q", path, got, name)
			}
			return end, nil
		},
		func(fr recordlog.Frame) error {
			count := len(fr.Body) / recordSize
			if fr.Kind != kindBlock || count == 0 || len(fr.Body)%recordSize != 0 {
				return fmt.Errorf("malformed block (corrupted file)")
			}
			samples := make([]Sample, count)
			for i := range samples {
				rec := fr.Body[i*recordSize:]
				nanos := int64(binary.LittleEndian.Uint64(rec))
				bits := binary.LittleEndian.Uint64(rec[8:])
				samples[i] = Sample{At: time.Unix(0, nanos).UTC(), Value: math.Float64frombits(bits)}
			}
			// Blocks are written sorted; tolerate (and repair) any drift.
			sort.SliceStable(samples, func(i, j int) bool { return samples[i].At.Before(samples[j].At) })
			segments = append(segments, newSegment(samples))
			return nil
		})
	if err != nil {
		return "", nil, nil, fmt.Errorf("historian: %w", err)
	}
	return name, segments, log, nil
}

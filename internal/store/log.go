package store

// The append-only segment log: the durable half of the result store.
// Records are immutable, content-addressed results — (cursor, key,
// code version, NDJSON line) — framed with a length prefix and a CRC so
// a crash mid-append is detectable, and written to numbered segment
// files that rotate at a size threshold so compaction can retire dead
// regions wholesale instead of rewriting one giant file.
//
// On-disk layout (all integers big-endian):
//
//	segment file <seq, %016d.seg>:
//	  8-byte magic "RPROSEG1"
//	  frame*:
//	    u32 payload length
//	    u32 CRC-32C (Castagnoli) of the payload
//	    payload:
//	      u64 cursor      monotonic append cursor (delta-sync identity)
//	      u16 key length    + key bytes   (hex SHA-256 content address)
//	      u16 version length + version bytes (code version at append time)
//	      line bytes        (the newline-terminated NDJSON result)
//
// Crash tolerance: replay stops a segment at the first frame that is
// short (truncated tail) or fails its CRC (torn write); the active
// segment is truncated back to its last good frame so future appends
// start from a clean boundary. Records are only trusted whole.
//
// The Log itself is not goroutine-safe: the Durable store serializes
// every call under its own mutex (single-writer, coordinated readers).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
)

// segMagic begins every segment file; a file without it is ignored.
const segMagic = "RPROSEG1"

// maxRecordBytes bounds one frame's payload so a corrupt length prefix
// cannot drive a giant allocation during replay.
const maxRecordBytes = 1 << 30

// frameHeaderLen is the length + CRC prefix of one frame.
const frameHeaderLen = 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errTornFrame marks a frame that cannot be trusted: cut short by the
// end of its segment, carrying an implausible length, failing its CRC
// or decoding to a malformed payload. Replay stops a segment there.
var errTornFrame = errors.New("torn frame")

// Record is one appended result: the delta-sync cursor, the content
// address, the code version the result was produced by, and the
// newline-terminated NDJSON line itself.
type Record struct {
	Cursor  uint64
	Key     string
	Version string
	Line    []byte
}

// frameSize is the on-disk footprint of the record's frame.
func (r Record) frameSize() int64 {
	return int64(frameHeaderLen + 8 + 2 + len(r.Key) + 2 + len(r.Version) + len(r.Line))
}

// encode renders the record's frame (header + payload).
func (r Record) encode() []byte {
	payload := make([]byte, 0, r.frameSize()-frameHeaderLen)
	payload = binary.BigEndian.AppendUint64(payload, r.Cursor)
	payload = binary.BigEndian.AppendUint16(payload, uint16(len(r.Key)))
	payload = append(payload, r.Key...)
	payload = binary.BigEndian.AppendUint16(payload, uint16(len(r.Version)))
	payload = append(payload, r.Version...)
	payload = append(payload, r.Line...)

	frame := make([]byte, 0, frameHeaderLen+len(payload))
	frame = binary.BigEndian.AppendUint32(frame, uint32(len(payload)))
	frame = binary.BigEndian.AppendUint32(frame, crc32.Checksum(payload, crcTable))
	return append(frame, payload...)
}

// decodePayload parses one CRC-verified payload back into a Record.
func decodePayload(payload []byte) (Record, error) {
	var r Record
	if len(payload) < 8+2 {
		return r, fmt.Errorf("payload too short: %d bytes", len(payload))
	}
	r.Cursor = binary.BigEndian.Uint64(payload)
	rest := payload[8:]
	klen := int(binary.BigEndian.Uint16(rest))
	rest = rest[2:]
	if len(rest) < klen+2 {
		return r, fmt.Errorf("key length %d overruns payload", klen)
	}
	r.Key = string(rest[:klen])
	rest = rest[klen:]
	vlen := int(binary.BigEndian.Uint16(rest))
	rest = rest[2:]
	if len(rest) < vlen {
		return r, fmt.Errorf("version length %d overruns payload", vlen)
	}
	r.Version = string(rest[:vlen])
	r.Line = rest[vlen:]
	return r, nil
}

// segment is one numbered log file.
type segment struct {
	seq  int64
	path string
	f    *os.File
	size int64
}

// Log is the set of segment files in one directory plus the active
// (highest-numbered) segment appends go to.
type Log struct {
	dir          string
	segmentBytes int64
	segs         map[int64]*segment
	active       *segment
	nextSeq      int64
}

// OpenLog opens (or creates) the segment log in dir, rotating the
// active segment once it reaches segmentBytes. Existing segments are
// opened but not scanned — call Replay before the first Append.
func OpenLog(dir string, segmentBytes int64) (*Log, error) {
	if segmentBytes <= 0 {
		segmentBytes = 8 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, segmentBytes: segmentBytes, segs: map[int64]*segment{}, nextSeq: 1}

	names, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		return nil, err
	}
	for _, path := range names {
		var seq int64
		if _, err := fmt.Sscanf(filepath.Base(path), "%d.seg", &seq); err != nil || seq <= 0 {
			continue // not one of ours
		}
		if seq >= l.nextSeq {
			l.nextSeq = seq + 1 // never reuse a sequence number, even for files we skip
		}
		f, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			l.Close()
			return nil, err
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			l.Close()
			return nil, err
		}
		header := make([]byte, len(segMagic))
		if n, _ := f.ReadAt(header, 0); n < len(segMagic) {
			// Shorter than its header: a crash during segment creation.
			// Reinitialize it so the file is usable again.
			if err := f.Truncate(0); err != nil {
				f.Close()
				l.Close()
				return nil, err
			}
			if _, err := f.WriteAt([]byte(segMagic), 0); err != nil {
				f.Close()
				l.Close()
				return nil, err
			}
			l.segs[seq] = &segment{seq: seq, path: path, f: f, size: int64(len(segMagic))}
			continue
		}
		if string(header) != segMagic {
			f.Close() // foreign or hopelessly corrupt; leave it alone
			continue
		}
		l.segs[seq] = &segment{seq: seq, path: path, f: f, size: fi.Size()}
	}
	for _, s := range l.segs {
		if l.active == nil || s.seq > l.active.seq {
			l.active = s
		}
	}
	if l.active == nil {
		if err := l.rotate(); err != nil {
			l.Close()
			return nil, err
		}
	}
	return l, nil
}

// rotate seals the current active segment (fsync) and starts a new one,
// then fsyncs the directory so the new file's name survives a crash. The
// new segment is active even when that last fsync fails; the error then
// only says its directory entry may not be durable yet.
func (l *Log) rotate() error {
	if l.active != nil {
		if err := l.active.f.Sync(); err != nil {
			return err
		}
	}
	seq := l.nextSeq
	path := filepath.Join(l.dir, fmt.Sprintf("%016d.seg", seq))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt([]byte(segMagic), 0); err != nil {
		f.Close()
		return err
	}
	s := &segment{seq: seq, path: path, f: f, size: int64(len(segMagic))}
	l.segs[seq] = s
	l.active = s
	l.nextSeq = seq + 1
	return syncDir(l.dir)
}

// syncDir fsyncs directory dir, making the files created or unlinked in
// it durable: a file's own fsync covers its contents, not its name.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Append writes one record to the active segment (rotating first if the
// segment has reached its size threshold) and returns where it landed.
func (l *Log) Append(r Record) (seq, off int64, err error) {
	if l.active.size >= l.segmentBytes && l.active.size > int64(len(segMagic)) {
		if err := l.rotate(); err != nil {
			return 0, 0, err
		}
	}
	frame := r.encode()
	off = l.active.size
	if _, err := l.active.f.WriteAt(frame, off); err != nil {
		return 0, 0, err
	}
	l.active.size += int64(len(frame))
	return l.active.seq, off, nil
}

// ReadAt reads back the record whose frame starts at off in segment
// seq, verifying its CRC.
func (l *Log) ReadAt(seq, off int64) (Record, error) {
	s, ok := l.segs[seq]
	if !ok {
		return Record{}, fmt.Errorf("segment %d is gone", seq)
	}
	r, err := readFrame(s, off)
	if err != nil {
		return Record{}, fmt.Errorf("segment %d @%d: %w", seq, off, err)
	}
	return r, nil
}

// readFrame reads the frame starting at off in s: header, length bound,
// CRC check and decode. A frame that cannot be trusted returns an error
// wrapping errTornFrame; any other error is an I/O failure. The frame's
// length is the record's frameSize.
func readFrame(s *segment, off int64) (Record, error) {
	if off+frameHeaderLen > s.size {
		return Record{}, fmt.Errorf("%w: header cut short", errTornFrame)
	}
	header := make([]byte, frameHeaderLen)
	if _, err := s.f.ReadAt(header, off); err != nil {
		return Record{}, err
	}
	n := binary.BigEndian.Uint32(header)
	if n > maxRecordBytes || off+frameHeaderLen+int64(n) > s.size {
		return Record{}, fmt.Errorf("%w: implausible length %d", errTornFrame, n)
	}
	payload := make([]byte, n)
	if _, err := s.f.ReadAt(payload, off+frameHeaderLen); err != nil {
		return Record{}, err
	}
	if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(header[4:]) {
		return Record{}, fmt.Errorf("%w: CRC mismatch", errTornFrame)
	}
	r, err := decodePayload(payload)
	if err != nil {
		return Record{}, fmt.Errorf("%w: %v", errTornFrame, err)
	}
	return r, nil
}

// Replay scans every segment in sequence order and calls fn for each
// intact record. A segment's scan stops at the first truncated or torn
// frame — records past a tear are unreachable by construction — and the
// active segment is additionally truncated back to its last good frame
// so the next Append starts from a clean boundary. Only I/O errors are
// returned; corruption is tolerated silently (the tolerant path IS the
// contract).
func (l *Log) Replay(fn func(seq, off int64, r Record)) error {
	for _, seq := range l.seqs() {
		s := l.segs[seq]
		good, err := scanSegment(s, fn)
		if err != nil {
			return err
		}
		if s == l.active && good < s.size {
			if err := s.f.Truncate(good); err != nil {
				return err
			}
			s.size = good
		}
	}
	return nil
}

// ScanSegment replays one segment's intact records (compaction uses it
// to collect a victim's survivors).
func (l *Log) ScanSegment(seq int64, fn func(seq, off int64, r Record)) error {
	s, ok := l.segs[seq]
	if !ok {
		return fmt.Errorf("segment %d is gone", seq)
	}
	_, err := scanSegment(s, fn)
	return err
}

// scanSegment walks s frame by frame, returning the offset just past
// the last intact record.
func scanSegment(s *segment, fn func(seq, off int64, r Record)) (good int64, err error) {
	for good = int64(len(segMagic)); good < s.size; {
		r, err := readFrame(s, good)
		if errors.Is(err, errTornFrame) {
			return good, nil // stop trusting this segment at the tear
		}
		if err != nil {
			return good, err
		}
		fn(s.seq, good, r)
		good += r.frameSize()
	}
	return good, nil
}

// RemoveSegment unlinks one sealed segment (compaction's final step) and
// fsyncs the directory, so a crash cannot bring the segment back.
// Removing the active segment is refused.
func (l *Log) RemoveSegment(seq int64) error {
	s, ok := l.segs[seq]
	if !ok {
		return fmt.Errorf("segment %d is gone", seq)
	}
	if s == l.active {
		return fmt.Errorf("segment %d is active", seq)
	}
	s.f.Close()
	delete(l.segs, seq)
	if err := os.Remove(s.path); err != nil {
		return err
	}
	return syncDir(l.dir)
}

// SealedSeqs lists every non-active segment, oldest first.
func (l *Log) SealedSeqs() []int64 {
	seqs := l.seqs()
	if l.active != nil {
		seqs = seqs[:len(seqs)-1] // the active segment is always the newest
	}
	return seqs
}

// DataBytes is the record bytes (past the header) of one segment.
func (l *Log) DataBytes(seq int64) int64 {
	s, ok := l.segs[seq]
	if !ok {
		return 0
	}
	return s.size - int64(len(segMagic))
}

// SegmentCount is the number of live segment files.
func (l *Log) SegmentCount() int { return len(l.segs) }

// TotalBytes is the total size of all live segment files.
func (l *Log) TotalBytes() int64 {
	var n int64
	for _, s := range l.segs {
		n += s.size
	}
	return n
}

// Sync flushes the active segment to durable media: the store
// coordinator's periodic checkpoint, compaction's barrier before an
// unlink, and Close's last step.
func (l *Log) Sync() error {
	if l.active == nil {
		return nil
	}
	return l.active.f.Sync()
}

// Close syncs the active segment and closes every file.
func (l *Log) Close() error {
	err := l.Sync()
	for _, s := range l.segs {
		if cerr := s.f.Close(); err == nil {
			err = cerr
		}
	}
	l.segs = map[int64]*segment{}
	l.active = nil
	return err
}

// seqs lists every segment in ascending order.
func (l *Log) seqs() []int64 {
	out := make([]int64, 0, len(l.segs))
	for seq := range l.segs {
		out = append(out, seq)
	}
	slices.Sort(out)
	return out
}

package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// rec builds a test record; cursor doubles as the content.
func testRecord(cursor uint64) Record {
	return Record{
		Cursor:  cursor,
		Key:     fmt.Sprintf("key-%03d", cursor),
		Version: "v-test",
		Line:    []byte(fmt.Sprintf(`{"cursor":%d}`+"\n", cursor)),
	}
}

// replayAll collects every record Replay yields.
func replayAll(t *testing.T, l *Log) []Record {
	t.Helper()
	var out []Record
	if err := l.Replay(func(_, _ int64, r Record) { out = append(out, r) }); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestLogAppendReadReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	type at struct{ seq, off int64 }
	var locs []at
	for c := uint64(1); c <= 5; c++ {
		seq, off, err := l.Append(testRecord(c))
		if err != nil {
			t.Fatal(err)
		}
		locs = append(locs, at{seq, off})
	}
	for i, loc := range locs {
		r, err := l.ReadAt(loc.seq, loc.off)
		if err != nil {
			t.Fatalf("ReadAt record %d: %v", i, err)
		}
		want := testRecord(uint64(i + 1))
		if r.Cursor != want.Cursor || r.Key != want.Key || r.Version != want.Version || !bytes.Equal(r.Line, want.Line) {
			t.Fatalf("record %d round-tripped as %+v", i, r)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: replay must yield the same five records in order.
	l2, err := OpenLog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := replayAll(t, l2)
	if len(got) != 5 {
		t.Fatalf("replayed %d records, want 5", len(got))
	}
	for i, r := range got {
		if r.Cursor != uint64(i+1) {
			t.Fatalf("replay out of order: record %d has cursor %d", i, r.Cursor)
		}
	}
}

func TestLogRotatesAtThreshold(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, 1) // any record fills a segment: rotate on every append after the first
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for c := uint64(1); c <= 4; c++ {
		if _, _, err := l.Append(testRecord(c)); err != nil {
			t.Fatal(err)
		}
	}
	if n := l.SegmentCount(); n != 4 {
		t.Fatalf("segment count = %d, want 4 with a 1-byte threshold", n)
	}
	if sealed := l.SealedSeqs(); len(sealed) != l.SegmentCount()-1 {
		t.Fatalf("sealed = %d of %d segments; the active one must be excluded", len(sealed), l.SegmentCount())
	}
	if l.TotalBytes() <= 0 {
		t.Fatal("TotalBytes = 0 with data on disk")
	}
	if got := replayAll(t, l); len(got) != 4 {
		t.Fatalf("replayed %d records across segments, want 4", len(got))
	}
}

// TestLogTruncatedTailTolerated is the crash-mid-append contract: a
// record cut short by a crash is invisible on replay, the tail is
// squared off, and subsequent appends replay cleanly.
func TestLogTruncatedTailTolerated(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for c := uint64(1); c <= 3; c++ {
		if _, _, err := l.Append(testRecord(c)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Cut the last record in half: a crash mid-write.
	path := onlySegment(t, dir)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-int64(testRecord(3).frameSize()/2)); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenLog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, l2)
	if len(got) != 2 {
		t.Fatalf("replay after truncation = %d records, want 2", len(got))
	}
	if got[1].Cursor != 2 {
		t.Fatalf("last surviving cursor = %d, want 2", got[1].Cursor)
	}
	// The tail was squared off: a fresh append must land on a clean
	// boundary and replay alongside the survivors.
	if _, _, err := l2.Append(testRecord(4)); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3, err := OpenLog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	got = replayAll(t, l3)
	if len(got) != 3 || got[2].Cursor != 4 {
		t.Fatalf("replay after post-crash append = %d records, want 3 ending at cursor 4", len(got))
	}
}

// TestLogTornRecordStopsSegment: a CRC mismatch mid-segment fails
// ReadAt with the torn-frame error and stops that segment's replay at
// the same frame, squaring the active segment off there.
func TestLogTornRecordStopsSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var seq int64
	var offs []int64
	for c := uint64(1); c <= 3; c++ {
		s, off, err := l.Append(testRecord(c))
		if err != nil {
			t.Fatal(err)
		}
		seq, offs = s, append(offs, off)
	}
	l.Close()

	// Flip one payload byte of the middle record.
	path := onlySegment(t, dir)
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	pos := offs[1] + frameHeaderLen + 10
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, pos); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, pos); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := OpenLog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, err := l2.ReadAt(seq, offs[0]); err != nil {
		t.Fatalf("ReadAt before the tear: %v", err)
	}
	if _, err := l2.ReadAt(seq, offs[1]); !errors.Is(err, errTornFrame) {
		t.Fatalf("ReadAt of the flipped frame = %v, want a torn-frame error", err)
	}
	got := replayAll(t, l2)
	if len(got) != 1 || got[0].Cursor != 1 {
		t.Fatalf("replay past a torn record: got %d records, want just cursor 1", len(got))
	}
	if end := int64(len(segMagic)) + l2.DataBytes(seq); end != offs[1] {
		t.Fatalf("replay squared the segment off at %d, want the torn frame's offset %d", end, offs[1])
	}
}

// onlySegment returns the path of the single segment file in dir.
func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly one segment, got %v (err %v)", segs, err)
	}
	return segs[0]
}

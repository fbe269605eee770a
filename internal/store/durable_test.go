package store

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// openTest opens a Durable store in dir with coordinators disabled (the
// tests that want them enable them explicitly) and a test code version.
func openTest(t *testing.T, dir, version string, cacheLimit int, segmentBytes int64) *Durable {
	t.Helper()
	d, err := Open(Options{
		Dir:          dir,
		CodeVersion:  version,
		CacheLimit:   cacheLimit,
		SegmentBytes: segmentBytes,
		SyncInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestDurableWarmStartServesEverything(t *testing.T) {
	dir := t.TempDir()
	d := openTest(t, dir, "v1", 0, 0)
	want := map[string][]byte{}
	for i := 0; i < 5; i++ {
		k := fmt.Sprintf("key-%d", i)
		l := line(fmt.Sprintf(`{"point":%d}`, i))
		d.Put(k, l)
		want[k] = l
	}
	if c := d.Stats().Cursor; c != 5 {
		t.Fatalf("cursor = %d after 5 appends, want 5", c)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := openTest(t, dir, "v1", 0, 0)
	for k, l := range want {
		got, ok := d2.Get(k)
		if !ok || !bytes.Equal(got, l) {
			t.Fatalf("warm Get(%s) = %q, %v; want %q", k, got, ok, l)
		}
	}
	st := d2.Stats()
	if st.Replayed != 5 || st.DiskEntries != 5 || st.Cursor != 5 {
		t.Fatalf("stats after warm start = %+v, want replayed/disk/cursor = 5", st)
	}
	if st.WarmHits != 5 {
		t.Fatalf("warm hits = %d after 5 replayed Gets, want 5", st.WarmHits)
	}
	// The cursor sequence continues where the log left off.
	d2.Put("key-5", line(`{"point":5}`))
	if c := d2.Stats().Cursor; c != 6 {
		t.Fatalf("cursor after post-restart put = %d, want 6", c)
	}
}

func TestDurableSkipsMismatchedCodeVersion(t *testing.T) {
	dir := t.TempDir()
	d := openTest(t, dir, "v1", 0, 0)
	d.Put("old", line(`{"v":1}`))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// A new build must not serve (or index) the old build's records.
	d2 := openTest(t, dir, "v2", 0, 0)
	if _, ok := d2.Get("old"); ok {
		t.Fatal("v2 store served a v1 record")
	}
	st := d2.Stats()
	if st.Replayed != 0 || st.DiskEntries != 0 {
		t.Fatalf("v2 replay indexed v1 records: %+v", st)
	}
	// But the cursor sequence still advances past the old records, so
	// delta-sync cursors never repeat across versions.
	d2.Put("new", line(`{"v":2}`))
	if c := d2.Stats().Cursor; c != 2 {
		t.Fatalf("cursor = %d, want 2 (v1 record holds cursor 1)", c)
	}
}

func TestDurableDiskHitAfterMemoryEviction(t *testing.T) {
	dir := t.TempDir()
	d := openTest(t, dir, "v1", 1, 0) // one-entry warm layer
	d.Put("a", line("a"))
	d.Put("b", line("b")) // evicts a from memory; disk still has it
	got, ok := d.Get("a")
	if !ok || !bytes.Equal(got, line("a")) {
		t.Fatalf("Get(a) after eviction = %q, %v", got, ok)
	}
	st := d.Stats()
	if st.DiskHits != 1 {
		t.Fatalf("disk hits = %d, want 1", st.DiskHits)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions recorded with a one-entry memory layer")
	}
}

// TestDurableWarmStartLoadsNewestCacheLimit: warm-up reads only the
// records the LRU keeps. Over 40 records with an 8-entry warm layer,
// the 8 newest by cursor are resident, nothing was evicted to get
// there, and an older key is still served from disk.
func TestDurableWarmStartLoadsNewestCacheLimit(t *testing.T) {
	dir := t.TempDir()
	d := openTest(t, dir, "v1", -1, 0)
	for i := 0; i < 40; i++ {
		d.Put(fmt.Sprintf("key-%02d", i), line(fmt.Sprintf(`{"point":%d}`, i)))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := openTest(t, dir, "v1", 8, 0)
	if st := d2.Stats(); st.MemEntries != 8 || st.Evictions != 0 || st.DiskEntries != 40 {
		t.Fatalf("after warm start: %d resident, %d evictions, %d on disk; want 8, 0, 40",
			st.MemEntries, st.Evictions, st.DiskEntries)
	}
	for i := 32; i < 40; i++ {
		k := fmt.Sprintf("key-%02d", i)
		if got, ok := d2.Get(k); !ok || !bytes.Equal(got, line(fmt.Sprintf(`{"point":%d}`, i))) {
			t.Fatalf("Get(%s) = %q, %v", k, got, ok)
		}
	}
	if st := d2.Stats(); st.WarmHits != 8 || st.DiskHits != 0 {
		t.Fatalf("the 8 newest keys: warm hits %d, disk hits %d; want 8, 0", st.WarmHits, st.DiskHits)
	}
	if got, ok := d2.Get("key-00"); !ok || !bytes.Equal(got, line(`{"point":0}`)) {
		t.Fatalf("Get(key-00) = %q, %v", got, ok)
	}
	if st := d2.Stats(); st.WarmHits != 8 || st.DiskHits != 1 {
		t.Fatalf("an older key: warm hits %d, disk hits %d; want 8, 1", st.WarmHits, st.DiskHits)
	}
}

func TestDurableCompactionRetiresDeadSegments(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every append seals the previous record's segment.
	d := openTest(t, dir, "v1", 0, 1)
	d.Put("a", line("a"))
	d.Put("b", line("b"))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// A new code version makes both v1 records dead on disk.
	d2 := openTest(t, dir, "v2", 0, 1)
	d2.Put("c", line("c"))
	before := d2.Stats()
	retired := d2.CompactNow()
	if retired == 0 {
		t.Fatalf("compaction retired nothing; stats before = %+v", before)
	}
	after := d2.Stats()
	if after.Segments >= before.Segments {
		t.Fatalf("segments %d -> %d; compaction must shrink the set", before.Segments, after.Segments)
	}
	if after.StoreBytes >= before.StoreBytes {
		t.Fatalf("store bytes %d -> %d; compaction must reclaim space", before.StoreBytes, after.StoreBytes)
	}
	if after.Compactions != int64(retired) {
		t.Fatalf("compactions counter = %d, want %d", after.Compactions, retired)
	}
	// The live record survives compaction byte-identically, cursor intact.
	got, ok := d2.Get("c")
	if !ok || !bytes.Equal(got, line("c")) {
		t.Fatalf("Get(c) after compaction = %q, %v", got, ok)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	d3 := openTest(t, dir, "v2", 0, 1)
	got, ok = d3.Get("c")
	if !ok || !bytes.Equal(got, line("c")) {
		t.Fatalf("Get(c) after compaction + restart = %q, %v", got, ok)
	}
	if st := d3.Stats(); st.Cursor != 3 {
		t.Fatalf("cursor after compaction + restart = %d, want 3 (compaction preserves cursors)", st.Cursor)
	}
}

// TestDurableCompactionDedupesSupersededRecords: two records for one
// key (a crash between compaction's re-append and unlink can leave
// duplicates) collapse to the newest.
func TestDurableCompactionDedupesSupersededRecords(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, 1) // every append rotates: record 1 lands in a sealed segment
	if err != nil {
		t.Fatal(err)
	}
	for c := uint64(1); c <= 2; c++ {
		if _, _, err := l.Append(Record{Cursor: c, Key: "dup", Version: "v1", Line: line(fmt.Sprintf("copy-%d", c))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	d := openTest(t, dir, "v1", 0, 1)
	if st := d.Stats(); st.DiskEntries != 1 {
		t.Fatalf("disk entries = %d, want 1 (duplicates share a key)", st.DiskEntries)
	}
	got, ok := d.Get("dup")
	if !ok || !bytes.Equal(got, line("copy-2")) {
		t.Fatalf("Get(dup) = %q, %v; want the newest copy", got, ok)
	}
	segsBefore := d.Stats().Segments
	if d.CompactNow() == 0 {
		t.Fatal("compaction left the superseded copy in place")
	}
	if after := d.Stats(); after.Segments >= segsBefore {
		t.Fatalf("segments %d -> %d after dedupe", segsBefore, after.Segments)
	}
	if got, ok := d.Get("dup"); !ok || !bytes.Equal(got, line("copy-2")) {
		t.Fatalf("Get(dup) after dedupe = %q, %v", got, ok)
	}
}

func TestDurableSinceStreamsInCursorOrder(t *testing.T) {
	dir := t.TempDir()
	d := openTest(t, dir, "v1", 0, 0)
	for i := 1; i <= 4; i++ {
		d.Put(fmt.Sprintf("k%d", i), line(fmt.Sprintf("r%d", i)))
	}
	collect := func(since uint64) []Delta {
		var out []Delta
		if err := d.Since(since, func(dl Delta) error { out = append(out, dl); return nil }); err != nil {
			t.Fatalf("Since(%d): %v", since, err)
		}
		return out
	}

	all := collect(0)
	if len(all) != 4 {
		t.Fatalf("Since(0) = %d records, want 4", len(all))
	}
	for i, dl := range all {
		if dl.Cursor != uint64(i+1) {
			t.Fatalf("record %d has cursor %d; stream must be cursor-ordered", i, dl.Cursor)
		}
		if want := line(fmt.Sprintf("r%d", i+1)); !bytes.Equal(dl.Line, want) {
			t.Fatalf("record %d line = %q, want %q", i, dl.Line, want)
		}
	}
	if tail := collect(2); len(tail) != 2 || tail[0].Cursor != 3 {
		t.Fatalf("Since(2) = %+v, want cursors 3,4", tail)
	}
	// A cursor at or past the end is an empty stream, not an error.
	if past := collect(99); len(past) != 0 {
		t.Fatalf("Since(99) = %d records, want 0", len(past))
	}
}

// TestDurableConcurrentUseWithCoordinators exercises the full store —
// puts, gets, delta pulls — while both coordinators tick at a high
// rate. Run under -race with the rest of the suite, this is the
// store's data-race oracle.
func TestDurableConcurrentUseWithCoordinators(t *testing.T) {
	d, err := Open(Options{
		Dir:             t.TempDir(),
		CodeVersion:     "v1",
		CacheLimit:      8, // force disk refills under load
		SegmentBytes:    256,
		SyncInterval:    time.Millisecond,
		CompactInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 25
	var wg sync.WaitGroup
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		w := w
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := fmt.Sprintf("w%d-%d", w, i)
				d.Put(k, line(k))
				if got, ok := d.Get(k); !ok || !bytes.Equal(got, line(k)) {
					t.Errorf("Get(%s) = %q, %v", k, got, ok)
					return
				}
				d.Since(0, func(Delta) error { return nil })
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := openTest(t, t.TempDir(), "v1", 0, 0)
	_ = d2 // fresh-dir open after a busy close must still work
	d3, err := Open(Options{Dir: dOptsDir(d), CodeVersion: "v1", SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if st := d3.Stats(); st.DiskEntries != writers*perWriter {
		t.Fatalf("disk entries after restart = %d, want %d", st.DiskEntries, writers*perWriter)
	}
}

// dOptsDir exposes the store's directory for reopening in tests.
func dOptsDir(d *Durable) string { return d.opts.Dir }

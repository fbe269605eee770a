package store

// Durable layers the in-memory LRU over the append-only segment Log:
// write-through on Put, warm-start replay on Open, and two background
// coordinators in the engram internal/worker style — a snapshot
// coordinator that periodically fsyncs the active segment (batched
// durability instead of a per-record fsync tax) and a compaction
// coordinator that rewrites sealed segments whose records have been
// superseded or belong to another code version. Both stop cleanly on
// Close, after the serving layer has drained.

import (
	"errors"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Options configures a Durable store. Dir and CodeVersion are required.
type Options struct {
	// Dir holds the segment files; created if missing.
	Dir string

	// CacheLimit bounds the in-memory layer's entry count: 0 means
	// 16384, negative means unbounded (serve.Config.CacheLimit's
	// semantics).
	CacheLimit int

	// SegmentBytes is the rotation threshold for the active segment;
	// 0 means 8 MiB.
	SegmentBytes int64

	// SyncInterval paces the snapshot coordinator's fsync of the active
	// segment; 0 means 500ms, negative disables the coordinator (Close
	// still syncs).
	SyncInterval time.Duration

	// CompactInterval paces the compaction coordinator; 0 disables it
	// (CompactNow still works on demand).
	CompactInterval time.Duration

	// CodeVersion stamps every appended record; replay skips records
	// carrying any other version, since their keys can never be asked
	// for by this build (the key folds the version in).
	CodeVersion string

	// Rec receives the store's counters (warm/disk hits, compactions,
	// replay size) so they land in run manifests; nil-safe.
	Rec *obs.Recorder

	// Log receives coordinator events; nil means slog.Default.
	Log *slog.Logger
}

// ref locates one key's newest record in the segment log.
type ref struct {
	seq    int64
	off    int64
	cursor uint64
	size   int64 // frame bytes, for per-segment liveness accounting
}

// Delta is one record of a cursor-ordered delta stream: everything a
// peer needs to replicate the append ("give me everything since X").
type Delta struct {
	Cursor uint64
	Key    string
	Line   []byte // the newline-terminated stored NDJSON result line
}

// Durable is the persistent ResultStore: an LRU warm layer over the
// segment log. Safe for concurrent use.
type Durable struct {
	opts Options
	mem  *Memory
	rec  *obs.Recorder
	slog *slog.Logger

	mu       sync.Mutex
	log      *Log
	index    map[string]ref // newest record per key, current code version only
	cursor   uint64         // last assigned delta-sync cursor
	replayed int64
	closed   bool

	warmHits     atomic.Int64
	diskHits     atomic.Int64
	compactions  atomic.Int64
	appendErrors atomic.Int64
	readErrors   atomic.Int64

	stop chan struct{}
	wg   sync.WaitGroup
}

// Open opens (or creates) the store in opts.Dir and replays the segment
// log: every intact record carrying the current code version is indexed
// and its line loaded into the warm layer, so a restarted daemon serves
// its whole history without re-simulating. Truncated tails and torn
// records are tolerated (replay stops a segment at the tear); records
// from other code versions are skipped. The coordinators start before
// Open returns; callers must Close.
func Open(opts Options) (*Durable, error) {
	if opts.Dir == "" {
		return nil, errors.New("store: Dir is required")
	}
	if opts.CodeVersion == "" {
		return nil, errors.New("store: CodeVersion is required")
	}
	if opts.CacheLimit == 0 {
		opts.CacheLimit = 16384
	}
	if opts.SyncInterval == 0 {
		opts.SyncInterval = 500 * time.Millisecond
	}
	if opts.Log == nil {
		opts.Log = slog.Default()
	}

	l, err := OpenLog(opts.Dir, opts.SegmentBytes)
	if err != nil {
		return nil, err
	}
	d := &Durable{
		opts:  opts,
		mem:   NewMemory(opts.CacheLimit, opts.Rec),
		rec:   opts.Rec,
		slog:  opts.Log,
		log:   l,
		index: map[string]ref{},
		stop:  make(chan struct{}),
	}

	var skipped int64
	err = l.Replay(func(seq, off int64, r Record) {
		if r.Cursor > d.cursor {
			d.cursor = r.Cursor
		}
		if r.Version != opts.CodeVersion {
			skipped++ // another build's result; its key can never be requested here
			return
		}
		if old, ok := d.index[r.Key]; ok && old.cursor > r.Cursor {
			return
		}
		d.index[r.Key] = ref{seq: seq, off: off, cursor: r.Cursor, size: r.frameSize()}
	})
	if err != nil {
		l.Close()
		return nil, err
	}
	// Warm the memory layer from the settled index, in cursor order, so
	// the LRU's recency mirrors append recency and a duplicate key (a
	// crash between compaction's re-append and unlink) warms its newest
	// copy, not whichever the scan met first.
	if err := d.warmFromIndex(); err != nil {
		l.Close()
		return nil, err
	}
	d.replayed = int64(len(d.index))
	d.rec.Add("store_replayed", d.replayed)
	d.slog.Info("store: warm start",
		"dir", opts.Dir, "replayed", d.replayed, "skipped_version", skipped,
		"segments", l.SegmentCount(), "cursor", d.cursor)

	if opts.SyncInterval > 0 {
		d.wg.Add(1)
		// The snapshot coordinator owns durability pacing; it never
		// touches simulation state.
		go d.snapshotLoop() //reprolint:allow goroutinescope: the snapshot coordinator only fsyncs the segment log on a ticker; simulation parallelism stays behind the deterministic executor
	}
	if opts.CompactInterval > 0 {
		d.wg.Add(1)
		// The compaction coordinator retires superseded segments; it
		// never touches simulation state.
		go d.compactionLoop() //reprolint:allow goroutinescope: the compaction coordinator only rewrites sealed log segments on a ticker; simulation parallelism stays behind the deterministic executor
	}
	return d, nil
}

// warmFromIndex loads every indexed record's line into the memory
// layer, oldest cursor first, so the most recently appended results end
// up most recent in the LRU. Called from Open before the coordinators
// start, so no locking is needed.
func (d *Durable) warmFromIndex() error {
	pending := make([]struct {
		key    string
		cursor uint64
	}, 0, len(d.index))
	for k, rf := range d.index {
		pending = append(pending, struct {
			key    string
			cursor uint64
		}{k, rf.cursor})
	}
	sortByCursor(pending)
	for _, p := range pending {
		rf := d.index[p.key]
		r, err := d.log.ReadAt(rf.seq, rf.off)
		if err != nil {
			return err
		}
		d.mem.put(p.key, r.Line, true)
	}
	return nil
}

// Get serves key from the warm layer, falling back to the segment log
// (and re-warming the line) on a memory miss.
func (d *Durable) Get(key string) ([]byte, bool) {
	if line, warm, ok := d.mem.get(key); ok {
		if warm {
			d.warmHits.Add(1)
			d.rec.Add("store_warm_hits", 1)
		}
		return line, true
	}
	d.mu.Lock()
	rf, ok := d.index[key]
	if !ok {
		d.mu.Unlock()
		return nil, false
	}
	r, err := d.log.ReadAt(rf.seq, rf.off)
	d.mu.Unlock()
	if err != nil {
		// A should-never-happen read failure degrades to a cache miss:
		// the caller re-simulates and Put repairs the index.
		d.readErrors.Add(1)
		d.rec.Add("store_read_errors", 1)
		d.slog.Warn("store: indexed record unreadable", "key", key, "err", err)
		return nil, false
	}
	d.diskHits.Add(1)
	d.rec.Add("store_disk_hits", 1)
	d.mem.put(key, r.Line, false)
	return r.Line, true
}

// Put appends the line to the segment log (write-through, assigning the
// next delta-sync cursor) and stores it in the warm layer.
func (d *Durable) Put(key string, line []byte) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.cursor++
	r := Record{Cursor: d.cursor, Key: key, Version: d.opts.CodeVersion, Line: line}
	seq, off, err := d.log.Append(r)
	if err != nil {
		// Disk trouble must not take serving down: keep the result in
		// memory and let the operator see the failure.
		d.mu.Unlock()
		d.appendErrors.Add(1)
		d.rec.Add("store_append_errors", 1)
		d.slog.Error("store: append failed; result is memory-only", "key", key, "err", err)
		d.mem.put(key, line, false)
		return
	}
	d.index[key] = ref{seq: seq, off: off, cursor: r.Cursor, size: r.frameSize()}
	d.mu.Unlock()
	d.mem.put(key, line, false)
}

// Since streams every live record with cursor > since, in cursor order,
// to fn; it stops early on the first fn error and returns it. Records
// appended after the call's snapshot are not included — their cursors
// are higher than everything streamed, so a client resuming from the
// last streamed cursor picks them up next pull.
func (d *Durable) Since(since uint64, fn func(Delta) error) error {
	d.mu.Lock()
	pending := make([]struct {
		key    string
		cursor uint64
	}, 0, len(d.index))
	for k, rf := range d.index {
		if rf.cursor > since {
			pending = append(pending, struct {
				key    string
				cursor uint64
			}{k, rf.cursor})
		}
	}
	d.mu.Unlock()
	sortByCursor(pending)

	for _, p := range pending {
		// Re-resolve under the lock each iteration: compaction may have
		// moved the record since the snapshot (its cursor never changes).
		d.mu.Lock()
		rf, ok := d.index[p.key]
		if !ok {
			d.mu.Unlock()
			continue
		}
		r, err := d.log.ReadAt(rf.seq, rf.off)
		d.mu.Unlock()
		if err != nil {
			return err
		}
		if err := fn(Delta{Cursor: rf.cursor, Key: p.key, Line: r.Line}); err != nil {
			return err
		}
	}
	return nil
}

// sortByCursor orders a pending delta snapshot; cursors are unique, so
// the order is total.
func sortByCursor(p []struct {
	key    string
	cursor uint64
}) {
	for i := 1; i < len(p); i++ { // insertion sort keeps the anonymous-struct slice dependency-free
		for j := i; j > 0 && p[j].cursor < p[j-1].cursor; j-- {
			p[j], p[j-1] = p[j-1], p[j]
		}
	}
}

// Sync flushes the active segment to durable media.
func (d *Durable) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	return d.log.Sync()
}

// CompactNow rewrites every sealed segment containing dead bytes —
// records superseded by a newer append or stamped with another code
// version — by re-appending its live records (cursors preserved) and
// unlinking the segment. Returns how many segments were retired.
// Result lines are small, so "any dead bytes" is a deliberately eager
// policy: it keeps the test oracle deterministic and the disk footprint
// tight without a tunable.
func (d *Durable) CompactNow() int {
	start := time.Now() //reprolint:allow nondeterminism: compaction duration is coordinator telemetry, observation-only by contract
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return 0
	}
	live := map[int64]int64{}
	for _, rf := range d.index {
		live[rf.seq] += rf.size
	}
	retired := 0
	for _, seq := range d.log.SealedSeqs() {
		if d.log.DataBytes(seq) == live[seq] {
			continue // every byte still live: nothing to reclaim
		}
		type survivor struct {
			r   Record
			off int64
		}
		var survivors []survivor
		if err := d.log.ScanSegment(seq, func(_, off int64, r Record) {
			if rf, ok := d.index[r.Key]; ok && rf.seq == seq && rf.off == off {
				survivors = append(survivors, survivor{r: r, off: off})
			}
		}); err != nil {
			d.slog.Warn("store: compaction scan failed", "segment", seq, "err", err)
			continue
		}
		ok := true
		for _, sv := range survivors {
			nseq, noff, err := d.log.Append(sv.r)
			if err != nil {
				d.slog.Error("store: compaction append failed", "segment", seq, "err", err)
				ok = false
				break
			}
			d.index[sv.r.Key] = ref{seq: nseq, off: noff, cursor: sv.r.Cursor, size: sv.r.frameSize()}
		}
		if !ok {
			break
		}
		// The survivors' new copies must be durable before the only
		// other copy is unlinked.
		if err := d.log.Sync(); err != nil {
			d.slog.Error("store: compaction sync failed", "segment", seq, "err", err)
			break
		}
		if err := d.log.RemoveSegment(seq); err != nil {
			d.slog.Warn("store: compaction remove failed", "segment", seq, "err", err)
			continue
		}
		retired++
		d.compactions.Add(1)
		d.rec.Add("store_compactions", 1)
	}
	d.mu.Unlock()
	if retired > 0 {
		d.slog.Debug("store: compacted",
			"segments", retired,
			"elapsed", time.Since(start)) //reprolint:allow nondeterminism: compaction duration is coordinator telemetry, observation-only by contract
	}
	return retired
}

// Stats snapshots the full store economy: the warm layer plus the
// segment log gauges.
func (d *Durable) Stats() Stats {
	st := d.mem.Stats()
	d.mu.Lock()
	st.DiskEntries = len(d.index)
	st.Segments = d.log.SegmentCount()
	st.StoreBytes = d.log.TotalBytes()
	st.Cursor = d.cursor
	st.Replayed = d.replayed
	d.mu.Unlock()
	st.WarmHits = d.warmHits.Load()
	st.DiskHits = d.diskHits.Load()
	st.Compactions = d.compactions.Load()
	st.AppendErrors = d.appendErrors.Load()
	st.ReadErrors = d.readErrors.Load()
	return st
}

// snapshotLoop is the snapshot coordinator: a periodic durability
// checkpoint (fsync of the active segment) so a machine crash loses at
// most one interval of appends, without paying a per-record fsync.
func (d *Durable) snapshotLoop() {
	defer d.wg.Done()
	t := time.NewTicker(d.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			if err := d.Sync(); err != nil {
				d.slog.Error("store: snapshot sync failed", "err", err)
			}
		}
	}
}

// compactionLoop is the compaction coordinator: it periodically retires
// sealed segments whose records are superseded or version-mismatched.
func (d *Durable) compactionLoop() {
	defer d.wg.Done()
	t := time.NewTicker(d.opts.CompactInterval)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			d.CompactNow()
		}
	}
}

// Close stops both coordinators, waits for them to drain, syncs the
// active segment one last time and closes every file. Call after the
// serving layer has stopped issuing Puts.
func (d *Durable) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.mu.Unlock()
	close(d.stop)
	d.wg.Wait()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	return d.log.Close()
}

package store

// Durable layers the in-memory LRU over the append-only segment Log:
// write-through on Put, warm-start replay on Open, and one background
// coordinator in the engram internal/worker style. On one ticker it
// fsyncs the active segment (batched durability instead of a per-record
// fsync tax); on another it rewrites sealed segments whose records have
// been superseded or belong to another code version. It stops cleanly
// on Close, after the serving layer has drained.

import (
	"cmp"
	"errors"
	"log/slog"
	"slices"
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

	// SyncInterval paces the coordinator's fsync of the active segment;
	// 0 means 500ms, negative disables the periodic fsync (Close still
	// syncs).
	SyncInterval time.Duration

	// CompactInterval paces the coordinator's compaction; 0 disables it
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
// log: every intact record carrying the current code version is indexed,
// so a restarted daemon serves its whole history without re-simulating,
// and the newest CacheLimit lines are loaded into the warm layer.
// Truncated tails and torn records are tolerated (replay stops a segment
// at the tear); records from other code versions are skipped. The
// coordinator starts before Open returns; callers must Close.
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
	// copy, not whichever the scan met first. Only the newest CacheLimit
	// records are read: the LRU would evict the rest.
	warm := d.keysSince(0)
	if opts.CacheLimit > 0 && len(warm) > opts.CacheLimit {
		warm = warm[len(warm)-opts.CacheLimit:]
	}
	for _, k := range warm {
		rf := d.index[k]
		r, err := l.ReadAt(rf.seq, rf.off)
		if err != nil {
			l.Close()
			return nil, err
		}
		d.mem.put(k, r.Line, true)
	}
	d.replayed = int64(len(d.index))
	d.rec.Add("store_replayed", d.replayed)
	d.slog.Info("store: warm start",
		"dir", opts.Dir, "replayed", d.replayed, "skipped_version", skipped,
		"segments", l.SegmentCount(), "cursor", d.cursor)

	if opts.SyncInterval > 0 || opts.CompactInterval > 0 {
		d.wg.Add(1)
		go d.coordinate() //reprolint:allow goroutinescope: the coordinator only fsyncs and compacts the segment log on tickers; simulation parallelism stays behind the deterministic executor
	}
	return d, nil
}

// keysSince snapshots the keys whose newest record has a cursor above
// since, in cursor order (cursors are unique, so the order is total).
// Caller holds d.mu or, in Open, has the store to itself.
func (d *Durable) keysSince(since uint64) []string {
	type entry struct {
		key    string
		cursor uint64
	}
	es := make([]entry, 0, len(d.index))
	for k, rf := range d.index {
		if rf.cursor > since {
			es = append(es, entry{k, rf.cursor})
		}
	}
	slices.SortFunc(es, func(a, b entry) int { return cmp.Compare(a.cursor, b.cursor) })
	keys := make([]string, len(es))
	for i, e := range es {
		keys[i] = e.key
	}
	return keys
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
	keys := d.keysSince(since)
	d.mu.Unlock()

	for _, k := range keys {
		// Re-resolve under the lock each iteration: compaction may have
		// moved the record since the snapshot (its cursor never changes).
		d.mu.Lock()
		rf, ok := d.index[k]
		if !ok {
			d.mu.Unlock()
			continue
		}
		r, err := d.log.ReadAt(rf.seq, rf.off)
		d.mu.Unlock()
		if err != nil {
			return err
		}
		if err := fn(Delta{Cursor: rf.cursor, Key: k, Line: r.Line}); err != nil {
			return err
		}
	}
	return nil
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

// coordinate is the store's one background goroutine. On the sync
// ticker it fsyncs the active segment, a periodic durability checkpoint
// so a machine crash loses at most one interval of appends without a
// per-record fsync. On the compaction ticker it retires sealed segments
// whose records are superseded or version-mismatched. A disabled
// ticker's channel is nil and never fires.
func (d *Durable) coordinate() {
	defer d.wg.Done()
	syncC, stopSync := ticker(d.opts.SyncInterval)
	defer stopSync()
	compactC, stopCompact := ticker(d.opts.CompactInterval)
	defer stopCompact()
	for {
		select {
		case <-d.stop:
			return
		case <-syncC:
			d.mu.Lock()
			err := d.log.Sync()
			d.mu.Unlock()
			if err != nil {
				d.slog.Error("store: snapshot sync failed", "err", err)
			}
		case <-compactC:
			d.CompactNow()
		}
	}
}

// ticker returns a ticker's channel and its stop, or a nil channel and
// a no-op stop when every is not positive.
func ticker(every time.Duration) (<-chan time.Time, func()) {
	if every <= 0 {
		return nil, func() {}
	}
	t := time.NewTicker(every)
	return t.C, t.Stop
}

// Close stops the coordinator, waits for it to drain, syncs the
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

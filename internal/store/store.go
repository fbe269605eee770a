// Package store is the result-store layer behind the serving path: the
// seam between "a simulation finished" and "its NDJSON line is
// retrievable by content address". Results are immutable — a point's
// line is a pure function of its SHA-256 key (core.PointOptions.Key
// folds the code version in) — so the storage problem reduces to an
// append-only, content-addressed log.
//
// Two implementations share the ResultStore interface:
//
//   - Memory: the bounded LRU the daemon always had — fast, process-
//     lifetime only. The zero-dependency default.
//   - Durable: Memory layered over an append-only segment Log with
//     write-through on Put, warm-start replay on Open, one background
//     coordinator that fsyncs and compacts the log, and a monotonic
//     per-record cursor that makes the whole store delta-syncable
//     ("every record since cursor X") for peer nodes and CLI clients.
package store

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// ResultStore is the serving path's result-cache seam: a content-
// addressed map from point key to the point's newline-terminated NDJSON
// result line. Implementations must be safe for concurrent use.
//
// Lines are shared, immutable byte slices: Get returns the stored slice
// without copying and callers must never mutate or append to it; Put
// takes ownership of the slice it is handed.
type ResultStore interface {
	// Get returns the stored line for key, if any. A hit refreshes the
	// key's recency in bounded implementations.
	Get(key string) ([]byte, bool)

	// Put stores the line under key. Re-putting a resident key is a
	// no-op (results are immutable, so the bytes are identical by
	// construction).
	Put(key string, line []byte)

	// Stats is the full observability snapshot, including the lines and
	// bytes resident in memory (the fast layer, for a durable store —
	// the disk index can be larger); purely in-memory implementations
	// leave the disk fields zero.
	Stats() Stats
}

// Stats is a point-in-time snapshot of a ResultStore's economy. The
// memory fields describe the fast layer; the disk fields are zero for
// Memory and live for Durable.
type Stats struct {
	// MemEntries / MemBytes / Evictions describe the in-memory LRU.
	MemEntries int   `json:"mem_entries"`
	MemBytes   int64 `json:"mem_bytes"`
	Evictions  int64 `json:"evictions"`

	// WarmHits counts Gets served from lines loaded by warm-start
	// replay; DiskHits counts Gets that missed memory and were re-read
	// from a segment. Both are zero for a memory-only store.
	WarmHits int64 `json:"warm_hits"`
	DiskHits int64 `json:"disk_hits"`

	// DiskEntries / Segments / StoreBytes / Compactions / Replayed /
	// Cursor describe the segment log: distinct keys indexed on disk,
	// live segment files, their total size, segments rewritten by
	// compaction, records accepted by the last warm-start replay, and
	// the last assigned delta-sync cursor.
	DiskEntries int    `json:"disk_entries"`
	Segments    int    `json:"segments"`
	StoreBytes  int64  `json:"store_bytes"`
	Compactions int64  `json:"compactions"`
	Replayed    int64  `json:"replayed"`
	Cursor      uint64 `json:"cursor"`

	// AppendErrors / ReadErrors count the durable store's degraded
	// operations: appends that failed (the result stayed memory-only)
	// and indexed records that could not be re-read (served as a miss).
	// Either being nonzero on a healthy disk is an operator alarm.
	AppendErrors int64 `json:"append_errors"`
	ReadErrors   int64 `json:"read_errors"`
}

// memEntry is one resident line in the LRU list; the element's Value is
// *memEntry. warm marks lines loaded by a durable store's warm-start
// replay, so hit accounting can attribute them.
type memEntry struct {
	key  string
	line []byte
	warm bool
}

// Memory is the bounded in-process LRU result store — the
// implementation extracted from the sweepd scheduler. Cache keys span
// an unbounded input space (any seed, any instruction count), so
// least-recently-used lines are evicted past the entry limit to keep a
// long-running daemon's memory flat.
type Memory struct {
	limit int // max entries; <= 0 means unbounded
	rec   *obs.Recorder

	mu      sync.Mutex
	entries map[string]*list.Element // resident lines by key, values *memEntry
	lru     *list.List               // front = most recently used
	bytes   int64

	evictions atomic.Int64
}

// NewMemory builds a Memory store evicting past limit entries (<= 0
// means unbounded). Evictions are mirrored to rec (nil-safe) as the
// cache_evictions counter so they land in run manifests.
func NewMemory(limit int, rec *obs.Recorder) *Memory {
	return &Memory{
		limit:   limit,
		rec:     rec,
		entries: map[string]*list.Element{},
		lru:     list.New(),
	}
}

// Get returns the resident line for key and refreshes its recency.
func (m *Memory) Get(key string) ([]byte, bool) {
	line, _, ok := m.get(key)
	return line, ok
}

// get is Get plus the warm flag, for the durable layer's hit
// attribution.
func (m *Memory) get(key string) (line []byte, warm, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key]
	if !ok {
		return nil, false, false
	}
	m.lru.MoveToFront(e)
	ent := e.Value.(*memEntry)
	return ent.line, ent.warm, true
}

// Put stores line under key and evicts least-recently-used entries past
// the bound. Eviction never touches a live stream: streams hold the
// line slice directly, so dropping the entry only means a future
// request misses here.
func (m *Memory) Put(key string, line []byte) { m.put(key, line, false) }

func (m *Memory) put(key string, line []byte, warm bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[key]; ok {
		// Results are immutable and singleflight keeps one job per key,
		// so a resident entry holds these exact bytes already; refresh
		// recency (and let live traffic clear the warm attribution)
		// rather than double-counting bytes.
		m.lru.MoveToFront(e)
		if !warm {
			e.Value.(*memEntry).warm = false
		}
		return
	}
	m.entries[key] = m.lru.PushFront(&memEntry{key: key, line: line, warm: warm})
	m.bytes += int64(len(line))
	for m.limit > 0 && m.lru.Len() > m.limit {
		oldest := m.lru.Back()
		ent := oldest.Value.(*memEntry)
		m.lru.Remove(oldest)
		delete(m.entries, ent.key)
		m.bytes -= int64(len(ent.line))
		m.evictions.Add(1)
		m.rec.Add("cache_evictions", 1)
	}
}

// Stats snapshots the memory-layer economy; disk fields stay zero.
func (m *Memory) Stats() Stats {
	m.mu.Lock()
	entries, bytes := m.lru.Len(), m.bytes
	m.mu.Unlock()
	return Stats{
		MemEntries: entries,
		MemBytes:   bytes,
		Evictions:  m.evictions.Load(),
	}
}

package pipeline

import (
	"repro/internal/mem"
	"repro/internal/trace"
)

// RunBatch simulates one benchmark trace under every lane of params in a
// single batched pass: the depth-invariant per-benchmark work — the
// trace's columns with their class flags and predictor verdicts (built
// with the trace), the consumer CSR (trace.ConsumerIndexOf), and the
// cache-prewarm walk — is done once and shared, while each lane keeps
// its own timing state in its Scratch. Lanes are partitioned by memory-system geometry
// in first-seen order; lanes in a partition of two or more share one
// prewarmed hierarchy template (its post-prewarm state is a pure function
// of geometry and trace, so copying it is bit-identical to rebuilding
// it), and a lane whose geometry no other lane shares falls back to the
// plain RunWith path with zero BatchLanes. Structural divergence between lanes — different
// WindowStages, PreSelect shapes, in-order vs out-of-order — is always
// allowed: each lane runs its own core loop over the shared columns.
//
// out[i] equals RunWith(params[i], tr, scratches[i]) field for field,
// except for the BatchLanes/BatchSharedDecode accounting that only
// RunBatch sets; the batch property test pins that equivalence.
// scratches must have one (possibly nil) slot per lane; slots may hold
// the same Scratch (lanes run one after another, see BatchScratch) but,
// like every Scratch, none may be shared with concurrent calls.
func RunBatch(params []Params, tr *trace.Trace, scratches []*Scratch) []Stats {
	out := make([]Stats, len(params))
	RunBatchEach(params, tr, scratches, func(lane int, st Stats) { out[lane] = st })
	return out
}

// RunBatchEach is RunBatch delivering each lane's Stats to emit the
// moment that lane finishes, on the calling goroutine, instead of
// collecting them: a caller streaming results (the sweep daemon) can
// publish a lane while the rest of the batch is still running. Every
// lane is emitted exactly once; lanes of one geometry partition finish
// in lane order, partitions in first-seen order.
func RunBatchEach(params []Params, tr *trace.Trace, scratches []*Scratch, emit func(lane int, st Stats)) {
	if len(scratches) != len(params) {
		panic("pipeline: RunBatch needs one scratch slot per lane")
	}
	if len(params) == 0 {
		return
	}
	// Every lane after the first reads the columns (and predictor
	// verdicts) the batch's first lane read.
	shared := uint64(tr.Len())
	done := func(lane int, st Stats) {
		if lane > 0 {
			st.BatchSharedDecode = shared
		}
		emit(lane, st)
	}

	// Fast path: every lane has the same memory-system geometry — the
	// depth-sweep shape, where lanes differ only in clock-derived timing —
	// so there is exactly one partition and no index bookkeeping.
	uniform := true
	key0 := hierKeyFor(params[0].Machine)
	for i := 1; i < len(params); i++ {
		if hierKeyFor(params[i].Machine) != key0 {
			uniform = false
			break
		}
	}
	if uniform {
		runBatchPartition(params, tr, scratches, nil, done)
		return
	}
	// Mixed-machine grids (ablations, capacity studies) are rare and
	// small, so the partition bookkeeping may allocate.
	keys := make([]hierKey, len(params))
	for i := range params {
		keys[i] = hierKeyFor(params[i].Machine)
	}
	assigned := make([]bool, len(params))
	var lanes []int
	for i := range params {
		if assigned[i] {
			continue
		}
		lanes = lanes[:0]
		for j := i; j < len(params); j++ {
			if !assigned[j] && keys[j] == keys[i] {
				assigned[j] = true
				lanes = append(lanes, j)
			}
		}
		runBatchPartition(params, tr, scratches, lanes, done)
	}
}

// runBatchPartition runs the lanes of one geometry partition. lanes
// lists the partition's lane indices; nil means all of params (the
// uniform fast path). Single-lane partitions are the RunWith fallback;
// larger ones build the shared prewarm template once and copy it into
// every lane.
func runBatchPartition(params []Params, tr *trace.Trace, scratches []*Scratch, lanes []int, done func(int, Stats)) {
	count := len(params)
	if lanes != nil {
		count = len(lanes)
	}
	laneAt := func(k int) int {
		if lanes == nil {
			return k
		}
		return lanes[k]
	}

	if count == 1 {
		// A lane with no geometry partner shares nothing but the columns;
		// it runs the plain RunWith path and keeps BatchLanes zero, so its
		// Stats are indistinguishable from an unbatched run's.
		i := laneAt(0)
		done(i, runWith(params[i], tr, scratches[i], nil))
		return
	}

	// Prewarm once per partition. The template lives on the partition's
	// first scratch so its allocation amortizes across batches; a nil
	// scratch (one-off callers) builds a throwaway.
	i0 := laneAt(0)
	var tmpl *mem.Hierarchy
	if s0 := scratches[i0]; s0 != nil {
		tmpl = s0.warmTemplate(params[i0].Machine)
	} else {
		tmpl = newHierarchy(params[i0].Machine)
	}
	tmpl.Coverage = tr.PrefetchCoverage
	tmpl.Prewarm(tr.HotBytes, tr.WarmBytes)

	for k := 0; k < count; k++ {
		i := laneAt(k)
		st := runWith(params[i], tr, scratches[i], tmpl)
		st.BatchLanes = uint64(count)
		done(i, st)
	}
}

// BatchScratch is the scratch state a RunBatch caller threads through
// successive batches, the way a single Scratch is reused across RunWith
// calls: a fresh value is valid, reuse only amortizes allocations, and a
// BatchScratch must never be shared by concurrent batches. The sweep
// engine and the sweep daemon keep one per worker.
//
// RunBatch runs its lanes one after another and a Scratch may serve any
// sequence of runs, so every lane slot holds the same Scratch: a
// BatchScratch retains one lane's simulation state (arenas, issue
// queues, cache hierarchy and prewarm template) however wide its
// batches grow.
type BatchScratch struct {
	lane  *Scratch
	slots []*Scratch // every entry is lane
}

// NewBatchScratch returns an empty BatchScratch; its Scratch is built on
// first use.
func NewBatchScratch() *BatchScratch { return &BatchScratch{} }

// Lanes returns n scratch slots for one RunBatch call, all holding the
// BatchScratch's one shared Scratch.
func (b *BatchScratch) Lanes(n int) []*Scratch {
	if b.lane == nil {
		b.lane = NewScratch()
	}
	for len(b.slots) < n {
		b.slots = append(b.slots, b.lane)
	}
	return b.slots[:n]
}

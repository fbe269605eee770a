package pipeline

import "repro/internal/trace"

// RunBatch simulates one benchmark trace under every lane of params, one
// lane after another, sharing the depth-invariant per-benchmark work —
// the trace's columns with their class flags and predictor verdicts
// (built with the trace), the consumer CSR (trace.ConsumerIndexOf), and
// the cache-prewarm walk — while each lane keeps its own timing state
// in its Scratch. Lanes run in GeometryOrder, so a
// Scratch serving every lane (see BatchScratch) prewarms its memory
// template once per geometry and copies it into each lane (the
// template's state is a pure function of geometry and the trace's
// working-set tiers, so the copy is bit-identical to rebuilding it).
// Structural divergence between lanes — different WindowStages,
// PreSelect shapes, in-order vs out-of-order — is always allowed: each
// lane runs its own core loop over the shared columns.
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
// lane is emitted exactly once, in GeometryOrder.
func RunBatchEach(params []Params, tr *trace.Trace, scratches []*Scratch, emit func(lane int, st Stats)) {
	if len(scratches) != len(params) {
		panic("pipeline: RunBatch needs one scratch slot per lane")
	}
	// Every lane after the first reads the columns (and predictor
	// verdicts) the batch's first lane read.
	shared := uint64(tr.Len())
	eachByGeometry(params, func(lane, partition int) {
		st := RunWith(params[lane], tr, scratches[lane])
		if partition > 1 {
			st.BatchLanes = uint64(partition)
		}
		if lane > 0 {
			st.BatchSharedDecode = shared
		}
		emit(lane, st)
	})
}

// GeometryOrder returns params' lane indices grouped by memory-system
// geometry: groups in first-seen order, params order within a group.
// One Scratch running lanes in this order over one trace prewarms its
// hierarchy template once per geometry (see Scratch.Prewarms).
func GeometryOrder(params []Params) []int {
	order := make([]int, 0, len(params))
	eachByGeometry(params, func(lane, _ int) { order = append(order, lane) })
	return order
}

// eachByGeometry calls f for every lane of params in GeometryOrder, with
// the size of the lane's geometry group. It allocates nothing: a lane's
// group is found by rescanning params, which for a uniform grid (every
// depth sweep) stops at lane 0.
func eachByGeometry(params []Params, f func(lane, partition int)) {
	for i := range params {
		key := hierKeyFor(params[i].Machine)
		first, size := true, 0
		for j := range params {
			if hierKeyFor(params[j].Machine) != key {
				continue
			}
			if j < i {
				first = false
				break
			}
			size++
		}
		if !first {
			continue
		}
		for j := i; j < len(params); j++ {
			if hierKeyFor(params[j].Machine) == key {
				f(j, size)
			}
		}
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

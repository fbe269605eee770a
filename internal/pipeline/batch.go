package pipeline

import "repro/internal/trace"

// Deprecated: RunBatch is RunWith(params[i], tr, scratches[i]) for every
// i in GeometryOrder, collected in params order. New code loops over
// GeometryOrder on one reused Scratch. Kept only for benchmark/probes.go.
func RunBatch(params []Params, tr *trace.Trace, scratches []*Scratch) []Stats {
	out := make([]Stats, len(params))
	for _, i := range GeometryOrder(params) {
		out[i] = RunWith(params[i], tr, scratches[i])
	}
	return out
}

// Deprecated: BatchScratch wraps one Scratch, reused across calls, that
// Lanes hands to every slot. New code reuses a *Scratch directly. Kept
// only for benchmark/probes.go.
type BatchScratch struct {
	lane  *Scratch
	slots []*Scratch // every entry is lane
}

// Deprecated: NewBatchScratch returns an empty BatchScratch. New code
// calls NewScratch. Kept only for benchmark/probes.go.
func NewBatchScratch() *BatchScratch { return &BatchScratch{} }

// Deprecated: Lanes returns n slots, all holding the BatchScratch's one
// Scratch, built on first use. Kept only for benchmark/probes.go.
func (b *BatchScratch) Lanes(n int) []*Scratch {
	if b.lane == nil {
		b.lane = NewScratch()
	}
	for len(b.slots) < n {
		b.slots = append(b.slots, b.lane)
	}
	return b.slots[:n]
}

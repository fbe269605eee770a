package trace

// ConsumerIndex is the reverse dependence adjacency of a trace in
// compressed-sparse-row form: the consumers of instruction i are
// Edges[Offsets[i]:Offsets[i+1]], in program order. An instruction with
// both source operands fed by the same producer appears twice in that
// producer's edge list (once per operand), so edge count equals the
// number of register-source dependences in the trace.
//
// The index is an analysis view of a trace's dataflow, for tools and
// probes that inspect it. No simulator reads it: the out-of-order core
// wakes consumers from waiter lists it builds at dispatch in its
// pipeline.Scratch, so a trace that is only simulated never builds one.
type ConsumerIndex struct {
	Offsets []int32 // Len()+1 row starts into Edges
	Edges   []int32 // consumer trace indices, grouped by producer
}

// Consumers returns the edge list of producer i.
func (ci *ConsumerIndex) Consumers(i int32) []int32 {
	return ci.Edges[ci.Offsets[i]:ci.Offsets[i+1]]
}

// ConsumerIndexOf returns the trace's consumer index, building it on
// first use. The index belongs to the trace's stream, so every clone
// (see WithPrefetchCoverage) gets the same one and it is freed with the
// stream; it is shared and must be treated as read-only. Once built it
// stays with the stream for the stream's life, about 4 B/inst of row
// offsets plus 4 B per dependence edge — more than the stream itself.
func (t *Trace) ConsumerIndexOf() *ConsumerIndex {
	s := t.s
	if s == nil {
		return &ConsumerIndex{Offsets: make([]int32, 1)}
	}
	s.consOnce.Do(func() { s.cons = buildConsumerIndex(t) })
	return s.cons
}

// buildConsumerIndex builds the CSR adjacency in two walks of the
// operands: count the out-degree of every producer, prefix-sum into row
// offsets, then fill. Dependencies always point backwards, so the
// result is a DAG adjacency whose edge lists are sorted by consumer
// index.
func buildConsumerIndex(t *Trace) *ConsumerIndex {
	n := t.Len()
	offsets := make([]int32, n+1)
	ops := t.Operands()
	for i := 0; i < n; i++ {
		s1, s2 := ops.Next()
		if s1 >= 0 {
			offsets[s1+1]++
		}
		if s2 >= 0 {
			offsets[s2+1]++
		}
	}
	for i := 0; i < n; i++ {
		offsets[i+1] += offsets[i]
	}
	edges := make([]int32, offsets[n])
	next := make([]int32, n)
	copy(next, offsets[:n])
	ops = t.Operands()
	for i := int32(0); i < int32(n); i++ {
		s1, s2 := ops.Next()
		if s1 >= 0 {
			edges[next[s1]] = i
			next[s1]++
		}
		if s2 >= 0 {
			edges[next[s2]] = i
			next[s2]++
		}
	}
	return &ConsumerIndex{Offsets: offsets, Edges: edges}
}

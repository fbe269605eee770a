package trace

import (
	"sync"
	"testing"

	"repro/internal/isa"
)

func TestConsumerIndexMatchesSources(t *testing.T) {
	p, _ := ByName("176.gcc")
	tr := p.Generate(20000, 1)
	ci := tr.ConsumerIndexOf()

	if got, want := len(ci.Offsets), tr.Len()+1; got != want {
		t.Fatalf("offsets length %d, want %d", got, want)
	}

	// Forward check: every edge corresponds to a real source operand.
	deps := 0
	cols := tr.Columns()
	for i := range cols.Flags {
		for _, d := range []uint16{cols.Dep1[i], cols.Dep2[i]} {
			s := Producer(int32(i), d)
			if s < 0 {
				continue
			}
			deps++
			found := false
			for _, c := range ci.Consumers(s) {
				if c == int32(i) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("inst %d depends on %d but is not in its consumer list", i, s)
			}
		}
	}
	if deps != len(ci.Edges) {
		t.Fatalf("index has %d edges, trace has %d register-source dependences", len(ci.Edges), deps)
	}

	// Reverse check: edge lists are sorted and every edge points forward
	// to an instruction that really names the producer.
	for p := int32(0); p < int32(tr.Len()); p++ {
		prev := int32(-1)
		for _, c := range ci.Consumers(p) {
			if c <= p {
				t.Fatalf("producer %d has consumer %d not strictly after it", p, c)
			}
			if c < prev {
				t.Fatalf("producer %d consumer list not sorted: %d after %d", p, c, prev)
			}
			prev = c
			if Producer(c, cols.Dep1[c]) != p && Producer(c, cols.Dep2[c]) != p {
				t.Fatalf("edge %d→%d has no matching source operand", p, c)
			}
		}
	}
}

func TestConsumerIndexDoubleEdgeForSharedProducer(t *testing.T) {
	b := NewBuilder(2)
	b.Append(Inst{Class: isa.IntAlu, Src1: -1, Src2: -1})
	b.Append(Inst{Class: isa.IntAlu, Src1: 0, Src2: 0})
	tr := b.Trace(Trace{Name: "dup"})
	ci := tr.ConsumerIndexOf()
	got := ci.Consumers(0)
	if len(got) != 2 || got[0] != 1 || got[1] != 1 {
		t.Fatalf("consumers of 0 = %v, want [1 1] (one edge per operand)", got)
	}
}

func TestConsumerIndexCachedAcrossClones(t *testing.T) {
	p, _ := ByName("171.swim")
	tr := p.Generate(5000, 7)
	clone := tr.WithPrefetchCoverage(0.5)
	a, b := tr.ConsumerIndexOf(), clone.ConsumerIndexOf()
	if a != b {
		t.Fatalf("clone sharing the stream got a distinct consumer index")
	}
	if c := tr.ConsumerIndexOf(); c != a {
		t.Fatalf("second lookup rebuilt the index")
	}
	if &tr.Columns().Flags[0] != &clone.Columns().Flags[0] {
		t.Fatalf("clone copied the stream's columns")
	}
}

// TestConsumerIndexConcurrentFirstUse pins that simultaneous first
// lookups on a fresh trace and its clone build one index between them,
// as concurrent simulations of a just-generated trace do.
func TestConsumerIndexConcurrentFirstUse(t *testing.T) {
	p, _ := ByName("176.gcc")
	tr := p.Generate(5000, 3)
	clone := tr.WithPrefetchCoverage(0.5)
	got := make([]*ConsumerIndex, 8)
	var wg sync.WaitGroup
	for i := range got {
		src := tr
		if i%2 == 1 {
			src = clone
		}
		wg.Add(1)
		go func(i int, src *Trace) {
			defer wg.Done()
			got[i] = src.ConsumerIndexOf()
		}(i, src)
	}
	wg.Wait()
	for i, ci := range got {
		if ci != got[0] {
			t.Fatalf("lookup %d got a different index than lookup 0", i)
		}
	}
}

func TestConsumerIndexEmptyTrace(t *testing.T) {
	tr := &Trace{Name: "empty"}
	ci := tr.ConsumerIndexOf()
	if len(ci.Offsets) != 1 || len(ci.Edges) != 0 {
		t.Fatalf("empty trace index = %+v, want one offset and no edges", ci)
	}
}

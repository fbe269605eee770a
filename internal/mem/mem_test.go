package mem

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/trace"
)

func TestCacheBasicHitMiss(t *testing.T) {
	c := NewCache(1024, 64, 2) // 8 sets × 2 ways
	if c.Access(0) {
		t.Error("cold access hit")
	}
	if !c.Access(0) {
		t.Error("repeat access missed")
	}
	if !c.Access(32) {
		t.Error("same-block access missed")
	}
	if c.Access(4096) {
		t.Error("distinct block hit cold")
	}
}

func TestCacheLRUWithinSet(t *testing.T) {
	c := NewCache(2*64, 64, 2) // one set, two ways
	c.Access(0)                // block A
	c.Access(64)               // block B
	c.Access(0)                // touch A — B becomes LRU
	c.Access(128)              // block C evicts B
	if !c.Access(0) {
		t.Error("A evicted though it was MRU")
	}
	if c.Access(64) {
		t.Error("B survived though it was LRU")
	}
}

func TestCacheCapacityBehaviour(t *testing.T) {
	// Sequentially touching twice the capacity with direct re-walk gives
	// ~100% misses on the second pass (LRU, working set > capacity).
	c := NewCache(8<<10, 64, 2)
	for pass := 0; pass < 2; pass++ {
		for a := uint64(0); a < 16<<10; a += 64 {
			c.Access(a)
		}
	}
	if mr := c.MissRate(); mr < 0.95 {
		t.Errorf("thrash miss rate = %.3f, want ~1", mr)
	}
	// A working set half the capacity gives ~0% misses after the first pass.
	c.Reset()
	for a := uint64(0); a < 4<<10; a += 64 {
		c.Access(a)
	}
	c.Accesses, c.Misses = 0, 0
	for pass := 0; pass < 5; pass++ {
		for a := uint64(0); a < 4<<10; a += 64 {
			c.Access(a)
		}
	}
	if mr := c.MissRate(); mr > 0.01 {
		t.Errorf("resident miss rate = %.3f, want ~0", mr)
	}
}

func TestHierarchyLevels(t *testing.T) {
	h := NewHierarchy(NewCache(1<<10, 64, 2), NewCache(8<<10, 64, 2))
	if lvl := h.Access(0); lvl != Memory {
		t.Errorf("cold access = %v, want memory", lvl)
	}
	if lvl := h.Access(0); lvl != L1Hit {
		t.Errorf("hot access = %v, want L1", lvl)
	}
	// Evict from L1 (1KB) but not L2 (8KB): walk 4KB, then re-touch 0.
	for a := uint64(64); a < 4<<10; a += 64 {
		h.Access(a)
	}
	if lvl := h.Access(0); lvl != L2Hit {
		t.Errorf("L1-evicted access = %v, want L2", lvl)
	}
}

func TestFlatHierarchy(t *testing.T) {
	h := NewFlat()
	for i := 0; i < 10; i++ {
		if lvl := h.Access(uint64(i * 8)); lvl != Memory {
			t.Errorf("flat access = %v, want memory", lvl)
		}
	}
}

func TestSPECWorkloadMissRates(t *testing.T) {
	// Group character under the 21264 hierarchy (64KB L1, 2MB L2):
	// mcf (64MB pointer chasing) misses much more than eon (512KB resident).
	missRate := func(name string) (l1, l2 float64) {
		p, ok := trace.ByName(name)
		if !ok {
			t.Fatalf("no profile %s", name)
		}
		tr := p.Generate(200000, 5)
		h := NewHierarchy(NewCache(64<<10, 64, 2), NewCache(2<<20, 64, 2))
		for _, a := range tr.Columns().MemAddrs {
			h.Access(uint64(a))
		}
		return h.L1.MissRate(), h.L2.MissRate()
	}
	mcfL1, mcfL2 := missRate("181.mcf")
	eonL1, _ := missRate("252.eon")
	if mcfL1 < 3*eonL1 {
		t.Errorf("mcf L1 miss rate (%.3f) not ≫ eon (%.3f)", mcfL1, eonL1)
	}
	if mcfL2 < 0.3 {
		t.Errorf("mcf L2 miss rate = %.3f; its 64MB footprint should bust a 2MB L2", mcfL2)
	}
	swimL1, _ := missRate("171.swim")
	if swimL1 > 0.5 {
		t.Errorf("swim L1 miss rate = %.3f; streaming code should mostly hit lines", swimL1)
	}
	_ = isa.Load
}

func TestCacheProperties(t *testing.T) {
	// Property: immediately re-accessing any address hits; statistics stay
	// consistent.
	f := func(addrs []uint64) bool {
		c := NewCache(4<<10, 64, 4)
		for _, a := range addrs {
			c.Access(a)
			if !c.Access(a) {
				return false
			}
		}
		return c.Misses <= c.Accesses
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewCachePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero capacity": func() { NewCache(0, 64, 2) },
		"non-multiple":  func() { NewCache(1000, 64, 2) },
		"non-pow2":      func() { NewCache(960, 48, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestCopyStateFromIsIndistinguishable is the batch prewarm template's
// contract: after CopyStateFrom, the copy and the source answer an
// identical access stream identically — contents, recency order,
// prefetcher phase and statistics all carried over.
func TestCopyStateFromIsIndistinguishable(t *testing.T) {
	build := func() *Hierarchy {
		return NewHierarchy(NewCache(8<<10, 64, 2), NewCache(64<<10, 64, 4))
	}
	src := build()
	src.Coverage = 0.7
	src.Prewarm(4<<10, 32<<10)
	for i := 0; i < 500; i++ {
		src.Access(uint64(i*192) % (96 << 10))
	}

	dst := build()
	dst.Access(123) // pre-existing state must be fully overwritten
	dst.CopyStateFrom(src)

	if dst.L1.Accesses != src.L1.Accesses || dst.L1.Misses != src.L1.Misses ||
		dst.L2.Accesses != src.L2.Accesses || dst.L2.Misses != src.L2.Misses ||
		dst.Prefetches != src.Prefetches {
		t.Fatalf("copied statistics diverge: dst L1 %d/%d L2 %d/%d pf %d, src L1 %d/%d L2 %d/%d pf %d",
			dst.L1.Accesses, dst.L1.Misses, dst.L2.Accesses, dst.L2.Misses, dst.Prefetches,
			src.L1.Accesses, src.L1.Misses, src.L2.Accesses, src.L2.Misses, src.Prefetches)
	}

	// Replay the same probe stream on both: every level answer and every
	// counter must stay in lockstep (this exercises tags, LRU recency and
	// the fractional prefetch accumulator, not just the counters above).
	for i := 0; i < 2000; i++ {
		addr := uint64(i*832+7) % (128 << 10)
		if a, b := src.Access(addr), dst.Access(addr); a != b {
			t.Fatalf("probe %d (addr %#x): src answered %v, copy answered %v", i, addr, a, b)
		}
	}
	if dst.L1.Misses != src.L1.Misses || dst.L2.Misses != src.L2.Misses || dst.Prefetches != src.Prefetches {
		t.Fatalf("post-replay statistics diverge: dst L1 %d L2 %d pf %d, src L1 %d L2 %d pf %d",
			dst.L1.Misses, dst.L2.Misses, dst.Prefetches, src.L1.Misses, src.L2.Misses, src.Prefetches)
	}
}

// TestCopyStateFromRejectsGeometryMismatch: the copy is a pair of
// memcpys, so shape mismatches must panic loudly instead of aliasing
// wrong sets.
func TestCopyStateFromRejectsGeometryMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("CopyStateFrom across geometries did not panic")
		}
	}()
	dst := NewCache(8<<10, 64, 2)
	dst.CopyStateFrom(NewCache(16<<10, 64, 2))
}

// TestSetIndexMaskMatchesModulo pins the power-of-two fast path against
// the general modulo for both shapes.
func TestSetIndexMaskMatchesModulo(t *testing.T) {
	pow2 := NewCache(8<<10, 64, 2) // 64 sets: masked path
	odd := NewCache(12<<10, 64, 2) // 96 sets: modulo path
	if pow2.setMask == ^uint64(0) {
		t.Fatal("64-set cache did not take the mask path")
	}
	if odd.setMask != ^uint64(0) {
		t.Fatal("96-set cache took the mask path")
	}
	for _, c := range []*Cache{pow2, odd} {
		for _, block := range []uint64{0, 1, 63, 64, 95, 96, 1 << 20, ^uint64(0) >> 8} {
			if got, want := c.setIndex(block), int(block%uint64(c.sets)); got != want {
				t.Errorf("%d sets, block %d: setIndex %d, want %d", c.sets, block, got, want)
			}
		}
	}
}

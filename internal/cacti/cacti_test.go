package cacti

import (
	"math"
	"testing"
	"testing/quick"
)

// The calibration anchors: access times the paper quotes or implies for the
// Alpha 21264's structures at 100nm (see DESIGN.md §5). Each test pins the
// model to the band that reproduces the corresponding Table 3 row.
func TestRegisterFileAnchor(t *testing.T) {
	// Paper: 512-entry register file accesses in 0.39 ns at 100nm
	// (10.8 FO4); Table 3's row is consistent with any value in (10, 11].
	got := Default100nm.RAMAccessFO4(RAMConfig{Entries: 512, Bits: 64, Ports: 12})
	if got <= 10 || got > 11 {
		t.Errorf("register file = %.2f FO4, want in (10, 11]", got)
	}
}

func TestIssueWindowAnchor(t *testing.T) {
	// Table 3's issue window row implies an access time in (16, 18] FO4 for
	// the 21264's 20-entry, 4-wide window.
	got := Default100nm.CAMAccessFO4(CAMConfig{Entries: 20, TagBits: 9, BroadcastPorts: 4})
	if got <= 16 || got > 18 {
		t.Errorf("issue window = %.2f FO4, want in (16, 18]", got)
	}
}

func TestLargerWindowStillThreeCyclesAtOptimum(t *testing.T) {
	// Figure 7: the capacity-optimized configuration at 6 FO4 uses a
	// 64-entry window with a 3-cycle access latency, i.e. at most 18 FO4.
	got := Default100nm.CAMAccessFO4(CAMConfig{Entries: 64, TagBits: 9, BroadcastPorts: 4})
	if got > 18 {
		t.Errorf("64-entry window = %.2f FO4; exceeds 3 cycles at 6 FO4 per stage", got)
	}
	if small := Default100nm.CAMAccessFO4(CAMConfig{Entries: 20, TagBits: 9, BroadcastPorts: 4}); got <= small {
		t.Errorf("64-entry window (%.2f) not slower than 20-entry (%.2f)", got, small)
	}
}

func TestDL1Anchor(t *testing.T) {
	// The 64KB 2-way DL1's access lands in (30, 32] FO4, consistent with
	// Table 3's 16 cycles at t_useful = 2 FO4 and 6 cycles at 6 FO4.
	got := Default100nm.CacheAccessFO4(CacheConfig{CapacityBytes: 64 << 10, BlockBytes: 64, Assoc: 2, Ports: 2})
	if got <= 30 || got > 32 {
		t.Errorf("DL1 = %.2f FO4, want in (30, 32]", got)
	}
}

func TestL2Anchor(t *testing.T) {
	// Figure 7's optimized 512KB L2 has a 12-cycle latency at 6 FO4, i.e.
	// an access time in (66, 72] FO4.
	got := Default100nm.CacheAccessFO4(CacheConfig{CapacityBytes: 512 << 10, BlockBytes: 64, Assoc: 2, Ports: 1})
	if got <= 66 || got > 72 {
		t.Errorf("512KB L2 = %.2f FO4, want in (66, 72]", got)
	}
}

func TestCacheMonotonicInCapacity(t *testing.T) {
	m := Default100nm
	prev := 0.0
	for _, kb := range []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048} {
		got := m.CacheAccessFO4(CacheConfig{CapacityBytes: kb << 10, BlockBytes: 64, Assoc: 2, Ports: 2})
		if got <= prev {
			t.Errorf("%dKB cache (%.2f FO4) not slower than previous (%.2f)", kb, got, prev)
		}
		prev = got
	}
}

func TestRAMMonotonicProperties(t *testing.T) {
	m := Default100nm
	// Property: more entries, more bits, or more ports never makes a RAM
	// faster.
	f := func(eRaw, bRaw, pRaw uint8) bool {
		e := 8 + int(eRaw)%512
		b := 4 + int(bRaw)%128
		p := 1 + int(pRaw)%16
		base := m.RAMAccessFO4(RAMConfig{Entries: e, Bits: b, Ports: p})
		return m.RAMAccessFO4(RAMConfig{Entries: e * 2, Bits: b, Ports: p}) >= base &&
			m.RAMAccessFO4(RAMConfig{Entries: e, Bits: b * 2, Ports: p}) >= base &&
			m.RAMAccessFO4(RAMConfig{Entries: e, Bits: b, Ports: p + 1}) >= base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCAMGrowsWithEntriesAndPorts(t *testing.T) {
	m := Default100nm
	f := func(eRaw, pRaw uint8) bool {
		e := 8 + int(eRaw)%128
		p := 1 + int(pRaw)%8
		base := m.CAMAccessFO4(CAMConfig{Entries: e, TagBits: 9, BroadcastPorts: p})
		return m.CAMAccessFO4(CAMConfig{Entries: e + 8, TagBits: 9, BroadcastPorts: p}) > base &&
			m.CAMAccessFO4(CAMConfig{Entries: e, TagBits: 9, BroadcastPorts: p + 1}) > base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSegmentationShrinksPerStageDelay(t *testing.T) {
	m := Default100nm
	cfg := CAMConfig{Entries: 32, TagBits: 9, BroadcastPorts: 4}
	full := m.CAMAccessFO4(cfg)
	prev := full
	for stages := 2; stages <= 8; stages *= 2 {
		seg := m.segmentedCAMStageFO4(cfg, stages)
		if seg >= prev {
			t.Errorf("%d-stage per-stage delay %.2f not below %d-stage %.2f",
				stages, seg, stages/2, prev)
		}
		prev = seg
	}
	if one := m.segmentedCAMStageFO4(cfg, 1); math.Abs(one-full) > 1e-9 {
		t.Errorf("1-stage segmented (%.2f) differs from unsegmented (%.2f)", one, full)
	}
}

func TestSelectFanInScaling(t *testing.T) {
	m := Default100nm
	// Partitioned selection's point: fan-in 16 select is meaningfully
	// faster than fan-in 32, and fits within ~1 cycle at the 6 FO4 optimum.
	s16, s32 := m.selectFO4(16), m.selectFO4(32)
	if s16 >= s32 {
		t.Errorf("select16 (%.2f) not faster than select32 (%.2f)", s16, s32)
	}
	if s16 > 6.0 {
		t.Errorf("select16 = %.2f FO4; does not fit one 6 FO4 stage", s16)
	}
}

func TestSetsComputation(t *testing.T) {
	c := CacheConfig{CapacityBytes: 64 << 10, BlockBytes: 64, Assoc: 2}
	if got := c.Sets(); got != 512 {
		t.Errorf("Sets = %d, want 512", got)
	}
}

func TestPanicsOnInvalidConfigs(t *testing.T) {
	m := Default100nm
	for name, fn := range map[string]func(){
		"ram zero entries": func() { m.RAMAccessFO4(RAMConfig{Entries: 0, Bits: 8}) },
		"cam zero tag":     func() { m.CAMAccessFO4(CAMConfig{Entries: 8, TagBits: 0}) },
		"tiny cache":       func() { m.CacheAccessFO4(CacheConfig{CapacityBytes: 16, BlockBytes: 64, Assoc: 2}) },
		"zero stages":      func() { m.segmentedCAMStageFO4(CAMConfig{Entries: 8, TagBits: 9}, 0) },
		"zero fanin":       func() { m.selectFO4(0) },
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

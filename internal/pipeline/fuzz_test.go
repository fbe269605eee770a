package pipeline

import (
	"testing"

	"repro/internal/config"
	"repro/internal/fo4"
	"repro/internal/isa"
	"repro/internal/trace"
)

// FuzzScratchReuse fuzzes Scratch reuse and the Stats conservation
// laws over small synthetic traces and point sets. lanes picks one to
// six points, three bytes each, from a table that varies the clock,
// window segmentation and selection, the critical-loop extensions, the
// cache geometry and the core; insts builds two traces of different
// lengths from the same bytes. One Scratch runs every point four times,
// alternating the two traces from point to point and the geometries in
// the table's order, so its memory template is re-prewarmed on every
// trace change and its window rings (sized by the shorter of the
// machine's in-flight bound and the trace), issue-queue bitmaps, waiter
// lists and ready-time wheel (sized by the lane's longest latency, up to
// its cap) are reused across lengths and machines. Every run must equal that point run on
// a fresh Scratch, and obey:
//
//   - BranchLookups equals the trace's branch count;
//   - L1Hits + L2Hits + MemAccesses equals its load count;
//   - Instructions equals n - Warmup;
//   - out-of-order only: SumIssued equals n and is at most
//     (IntIssue + FPIssue) × SimCycles, and WakeupWakes is at most the
//     trace's count of register-source dependences.
func FuzzScratchReuse(f *testing.F) {
	f.Add([]byte{6, 0, 0, 2, 16, 5, 14, 2, 63, 4, 32, 0}, []byte("\x06\x81\x00\x12\x08\x00\x80\x03\x07\x01\x02\xff\x00\x02\x81\x40"))
	f.Add([]byte{0, 9, 21, 10, 1, 42, 3, 37, 0}, []byte("loads, stores and branches over a short trace"))
	f.Add([]byte{14, 0, 1, 0, 1, 0x44, 14, 2, 0, 3, 4, 0x40}, []byte("\x06\x81\x80\x10\x00\x00\x80\x00\x06\x81\x80\x7f\x02\x00\x81\x00\x06\x00\x85\xff\x00\x00\x00\x00\x08\x81\x80\x01\x03\x01\x80\x00"))
	f.Fuzz(func(t *testing.T, lanes, insts []byte) {
		params := fuzzLanes(lanes)
		if len(params) == 0 || len(insts) < 4 {
			return
		}
		traces := [2]*trace.Trace{fuzzTrace(insts, 0), fuzzTrace(insts, 1)}
		for i := range params {
			params[i].Warmup = traces[0].Len() / 4
		}
		var branches, loads, deps [2]uint64
		for v, tr := range traces {
			cols := tr.Columns()
			for i, fl := range cols.Flags {
				if fl&trace.FlagBranch != 0 {
					branches[v]++
				}
				if fl&trace.FlagLoad != 0 {
					loads[v]++
				}
				for _, d := range [2]uint16{cols.Dep1[i], cols.Dep2[i]} {
					if d != 0 {
						deps[v]++
					}
				}
			}
		}

		s := NewScratch()
		for round := 0; round < 4; round++ {
			for i, p := range params {
				v := (round + i) % 2
				tr := traces[v]
				n := tr.Len()
				got, want := RunWith(p, tr, s), RunWith(p, tr, NewScratch())
				if got != want {
					t.Fatalf("round %d point %d (%+v): reused Scratch diverges from a fresh one:\n got %+v\nwant %+v", round, i, p, got, want)
				}
				if want.BranchLookups != branches[v] {
					t.Errorf("round %d point %d: BranchLookups = %d, want %d branches", round, i, want.BranchLookups, branches[v])
				}
				if acc := want.L1Hits + want.L2Hits + want.MemAccesses; acc != loads[v] {
					t.Errorf("round %d point %d: L1+L2+memory = %d, want %d loads", round, i, acc, loads[v])
				}
				if want.Instructions != uint64(n-p.Warmup) {
					t.Errorf("round %d point %d: Instructions = %d, want %d", round, i, want.Instructions, n-p.Warmup)
				}
				if p.Machine.InOrder {
					continue
				}
				if want.SumIssued != uint64(n) {
					t.Errorf("round %d point %d: SumIssued = %d, want %d", round, i, want.SumIssued, n)
				}
				if width := uint64(p.Machine.IntIssue + p.Machine.FPIssue); want.SumIssued > width*want.SimCycles {
					t.Errorf("round %d point %d: SumIssued %d exceeds width %d × %d cycles", round, i, want.SumIssued, width, want.SimCycles)
				}
				if want.WakeupWakes > deps[v] {
					t.Errorf("round %d point %d: WakeupWakes %d exceeds the trace's %d register-source dependences", round, i, want.WakeupWakes, deps[v])
				}
			}
		}
	})
}

// fuzzLanes decodes up to six points, three bytes each: the useful FO4
// (2..16); window stages 1/2/4, pre-selection, naive pipelining, the
// in-order core and a doubled L1 (a second geometry); and the three
// critical-loop extensions, 0..3 cycles each, where bit 6 of the third
// byte adds 1024 cycles to the load-use loop. That lane's ready-time
// wheel reaches its 1024-bucket cap, the consumers of its loads waiting
// in the wheel's overflow list, while lanes at 4 FO4 or more use at most
// 512 buckets, so a Scratch running it between them grows its wheel and
// then runs on a prefix of it.
func fuzzLanes(b []byte) []Params {
	var ps []Params
	for ; len(b) >= 3 && len(ps) < 6; b = b[3:] {
		m := config.Alpha21264()
		m.InOrder = b[1]&16 != 0
		if b[1]&32 != 0 {
			m.Structures.DL1.CapacityBytes *= 2
		}
		clk := fo4.Clock{Useful: float64(2 + b[0]%15), Overhead: fo4.PaperOverhead}
		p := Params{
			Machine:         m,
			Timing:          m.Resolve(clk),
			WindowStages:    [3]int{1, 2, 4}[b[1]%3],
			NaivePipelining: b[1]&8 != 0,
			ExtraWakeup:     int(b[2] & 3),
			ExtraLoadUse:    int(b[2]>>2&3) + int(b[2]>>6&1)<<10,
			ExtraMispredict: int(b[2] >> 4 & 3),
		}
		if b[1]&4 != 0 {
			p.PreSelect = []int{5, 2, 1}
		}
		ps = append(ps, p)
	}
	return ps
}

// fuzzTrace builds a trace of up to 256 instructions from b, four bytes
// each, reading b rotated by variant so the two variants differ. Sources
// point backward; addresses span the L1, the L2 and memory, all below
// 2^26. Variant 1 is longer than variant 0 (once b holds eight
// instructions), so a Scratch alternating between them runs two
// lengths; the variants also differ in working-set tiers and prefetch
// coverage, so it must re-prewarm.
func fuzzTrace(b []byte, variant int) *trace.Trace {
	n := len(b) / 4
	if n > 256 {
		n = 256
	}
	if variant == 0 {
		n -= n / 8
	}
	at := func(i int) byte { return b[(i+variant)%len(b)] }
	src := func(x byte, i int) int32 {
		if x&0x80 != 0 || i == 0 {
			return -1
		}
		return int32(i - 1 - int(x&0x7f)%i)
	}
	tb := trace.NewBuilder(n)
	for i := 0; i < n; i++ {
		b0, b1, b2, b3 := at(4*i), at(4*i+1), at(4*i+2), at(4*i+3)
		in := trace.Inst{
			Class: isa.Class(int(b0) % isa.NumClasses),
			Src1:  src(b1, i),
			Src2:  src(b2, i),
		}
		switch in.Class {
		case isa.Load, isa.Store:
			in.Addr = uint64(b3) << (3 + b2%16)
		case isa.Branch:
			in.PC, in.Taken = uint32(b1), b3&1 != 0
		}
		tb.Append(in)
	}
	return tb.Trace(trace.Trace{
		Name:             "fuzz",
		HotBytes:         16 << 10,
		WarmBytes:        uint64(64<<10) << (2 * variant),
		PrefetchCoverage: 1 / float64(1+variant),
	})
}

package trace

import (
	"testing"

	"repro/internal/isa"
)

// TestStreamMemoryBudget bounds what a trace retains per instruction.
// The columns take exactly 9 B (flags carrying the class, two 16-bit
// producer distances, a 32-bit address) and nothing else is kept: the
// simulators' wakeup lists live in their own scratch state. A trace that
// also kept an array-of-structs copy, a class column, a consumer index,
// 32-bit producers, 64-bit addresses or columns with append slack would
// blow the budget.
func TestStreamMemoryBudget(t *testing.T) {
	const n, budget = 200_000, 10.0
	for _, p := range SPEC2000() {
		tr := p.Generate(n, 1)
		if got := float64(tr.RetainedBytes()) / n; got > budget {
			t.Errorf("%s: trace retains %.1f B/inst, budget %.0f", p.Name, got, budget)
		}
	}
}

// TestAppendRejectsWideAddress: the address column is 32 bits wide, so
// Append refuses an address it would truncate instead of storing a
// different one.
func TestAppendRejectsWideAddress(t *testing.T) {
	b := NewBuilder(2)
	b.Append(Inst{Class: isa.Load, Src1: -1, Src2: -1, Addr: 1<<32 - 8})
	defer func() {
		if recover() == nil {
			t.Error("Append accepted the address 1<<32")
		}
	}()
	b.Append(Inst{Class: isa.Load, Src1: -1, Src2: -1, Addr: 1 << 32})
}

// TestSparseProducersStayInRange: a mix of almost only stores and
// branches leaves value producers further apart than MaxDep. Generate
// must treat those producers as ready (the stream cannot name them)
// rather than reach Append's range panic, and the profile must really
// get that far.
func TestSparseProducersStayInRange(t *testing.T) {
	p := Profile{
		Name: "sparse", DepDistMean: 4, TwoSrcFrac: 0.5, LoadDepFrac: 0.5,
		LoopFrac: 0.5, LoopTrip: 8, RandomBias: 0.5, Sites: 4,
		FootprintBytes: 1 << 20, StreamFrac: 0.5, Streams: 2,
	}
	p.Mix[isa.IntAlu] = 1e-5
	p.Mix[isa.Load] = 1e-5
	p.Mix[isa.Store] = 1
	p.Mix[isa.Branch] = 1
	tr := p.Generate(300_000, 1)
	cols := tr.Columns()
	last, beyond := -1, 0
	for i, f := range cols.Flags {
		if last >= 0 && i-last > MaxDep {
			beyond++
			if cols.Dep1[i] != 0 || cols.Dep2[i] != 0 {
				t.Fatalf("inst %d names a producer although the latest one, %d, is more than MaxDep back", i, last)
			}
		}
		if f&(FlagStore|FlagBranch) == 0 {
			last = i
		}
	}
	if beyond == 0 {
		t.Fatal("no instruction sits more than MaxDep after a producer; the profile misses the guard")
	}
}

// FuzzTraceColumns appends arbitrary instructions through a Builder and
// checks that the narrow columns give back every accepted instruction's
// class and producers, that the flag predicates agree with the class,
// and that Append panics on exactly the instructions the stream cannot
// hold, leaving the Builder unchanged. With long set, MaxDep+1 ready
// instructions come first so distances can reach past MaxDep.
func FuzzTraceColumns(f *testing.F) {
	// Each instruction takes 9 bytes: class, two operands of three
	// bytes (mode, distance low, high), address byte, branch byte.
	f.Add(false, []byte(""+
		"\x00\x00\x00\x00\x02\x00\x00\x01\x00"+ // int-alu, ready operands
		"\x06\x01\x01\x00\x00\x00\x00\x10\x00"+ // load fed by 0
		"\x08\x01\x02\x00\x05\x01\x00\x00\x81"+ // taken branch fed by 0 and 1
		"\x02\x01\x00\x00\x00\x00\x00\x00\x00"+ // self-dependence: rejected
		"\x01\x03\x01\x00\x00\x00\x00\x00\x00"+ // forward dependence: rejected
		"\x06\x00\x00\x00\x00\x00\x00\x80\x00")) // address 1<<32: rejected
	f.Add(true, []byte(""+
		"\x03\x01\xff\xff\x00\x00\x00\x00\x00"+ // fp-mult fed from MaxDep back
		"\x07\x00\x00\x00\x02\xfe\xff\x00\x00"+ // store fed from MaxDep back
		"\x00\x02\xff\xff\x00\x00\x00\x00\x00"+ // MaxDep+1 back: rejected
		"\x09\x00\x00\x00\x00\x00\x00\x00\x00")) // invalid class: rejected
	const chunk = 9
	f.Fuzz(func(t *testing.T, long bool, data []byte) {
		prefix := 0
		if long {
			prefix = MaxDep + 1
		}
		n := len(data) / chunk
		b := NewBuilder(prefix + n)
		for i := 0; i < prefix; i++ {
			b.Append(Inst{Class: isa.IntAlu, Src1: -1, Src2: -1})
		}
		// operand decodes three bytes into a producer of instruction i:
		// ready, d back (d up to MaxDep+1), or ahead of i.
		operand := func(i int, c, lo, hi byte) int32 {
			v := int(lo) | int(hi)<<8
			switch c % 4 {
			case 0:
				return -1
			case 1:
				return int32(i - v)
			case 2:
				return int32(i - v - 1)
			default:
				return int32(i + v)
			}
		}
		inRange := func(i int, src int32) bool {
			return src == -1 || src >= 0 && int(src) < i && i-int(src) <= MaxDep
		}
		var kept []Inst
		for ; len(data) >= chunk; data = data[chunk:] {
			i := prefix + len(kept)
			in := Inst{
				Class: isa.Class(int(data[0]) % (isa.NumClasses + 1)),
				Src1:  operand(i, data[1], data[2], data[3]),
				Src2:  operand(i, data[4], data[5], data[6]),
				Addr:  uint64(data[7]) << 25,
				PC:    uint32(data[8]&0x3f) << 4,
				Taken: data[8]&0x80 != 0,
			}
			fits := int(in.Class) < isa.NumClasses && in.Addr>>32 == 0 &&
				inRange(i, in.Src1) && inRange(i, in.Src2)
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				b.Append(in)
				return false
			}()
			if panicked == fits {
				t.Fatalf("inst %d %+v: Append panicked = %v, want %v", i, in, panicked, !fits)
			}
			if fits {
				kept = append(kept, in)
			}
		}
		tr := b.Trace(Trace{Name: "fuzz"})
		if tr.Len() != prefix+len(kept) {
			t.Fatalf("trace has %d instructions, appended %d", tr.Len(), prefix+len(kept))
		}
		cols := tr.Columns()
		for k, in := range kept {
			i := prefix + k
			fl := cols.Flags[i]
			if got := ClassOf(fl); got != in.Class {
				t.Fatalf("inst %d: ClassOf = %v, want %v", i, got, in.Class)
			}
			if got := Producer(int32(i), cols.Dep1[i]); got != in.Src1 {
				t.Fatalf("inst %d: first producer %d, want %d", i, got, in.Src1)
			}
			if got := Producer(int32(i), cols.Dep2[i]); got != in.Src2 {
				t.Fatalf("inst %d: second producer %d, want %d", i, got, in.Src2)
			}
			if uint64(cols.Addr[i]) != in.Addr {
				t.Fatalf("inst %d: address %#x, want %#x", i, cols.Addr[i], in.Addr)
			}
			branch := in.Class == isa.Branch
			if fl&FlagFP != 0 != in.Class.IsFP() || fl&FlagLoad != 0 != (in.Class == isa.Load) ||
				fl&FlagStore != 0 != (in.Class == isa.Store) || fl&FlagBranch != 0 != branch ||
				fl&FlagTaken != 0 != (branch && in.Taken) || !branch && fl&FlagMispredict != 0 {
				t.Fatalf("inst %d: flags %08b disagree with %v (taken %v)", i, fl, in.Class, in.Taken)
			}
		}
		// The columns were sized for every instruction offered: 9 B each.
		if got, want := tr.RetainedBytes(), int64(9*(prefix+n)); got != want {
			t.Fatalf("RetainedBytes = %d, want %d", got, want)
		}
	})
}

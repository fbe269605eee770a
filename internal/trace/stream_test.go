package trace

import (
	"runtime"
	"testing"

	"repro/internal/isa"
)

// decode reads every instruction of tr back through the package's
// readers: the flags column, one Operands walk and a cursor over
// MemAddrs. It checks AddrIndex against the cursor at every load and
// store, and that the walk uses up the address column.
func decode(t testing.TB, tr *Trace) []Inst {
	t.Helper()
	cols := tr.Columns()
	ops, idx := tr.Operands(), tr.AddrIndex()
	insts := make([]Inst, len(cols.Flags))
	next := 0
	for i, f := range cols.Flags {
		in := &insts[i]
		in.Class = ClassOf(f)
		in.Src1, in.Src2 = ops.Next()
		in.Taken = f&FlagTaken != 0
		if f&(FlagLoad|FlagStore) != 0 {
			a := cols.MemAddrs[next]
			next++
			if b := idx.At(int32(i)); b != a {
				t.Fatalf("inst %d: AddrIndex reads %#x, the in-order cursor %#x", i, b, a)
			}
			in.Addr = uint64(a)
		}
	}
	if next != len(cols.MemAddrs) {
		t.Fatalf("%d loads and stores, but %d addresses", next, len(cols.MemAddrs))
	}
	return insts
}

// TestStreamMemoryBudget bounds what a trace retains per instruction.
// The stream takes about 4.4 B/inst over the suite: a flags byte
// carrying the class, a byte per operand distance (with a handful of
// 16-bit escapes), a 32-bit address per load and store only, and an
// address index of 12 B per 64 instructions. Nothing else is kept: the
// simulators' wakeup lists live in their own scratch state. A trace
// that also kept an array-of-structs copy, a class column, a consumer
// index, 16-bit distances, an address for every instruction or columns
// with append slack would blow the budget.
func TestStreamMemoryBudget(t *testing.T) {
	const n, budget = 200_000, 5.0
	for _, p := range SPEC2000() {
		tr := p.Generate(n, 1)
		got := float64(tr.RetainedBytes()) / n
		t.Logf("%s: %.2f B/inst", p.Name, got)
		if got > budget {
			t.Errorf("%s: trace retains %.2f B/inst, budget %.0f", p.Name, got, budget)
		}
	}
}

// TestRetainedBytesMatchesHeap pins that RetainedBytes tells the truth:
// a generated trace, held after the build's garbage is collected, grows
// the heap by what it reports, within the allocator's rounding.
func TestRetainedBytesMatchesHeap(t *testing.T) {
	p, _ := ByName("181.mcf")
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	tr := p.Generate(1_000_000, 1)
	grown := int64(heap()) - int64(before)
	if got := tr.RetainedBytes(); got < grown*95/100 || got > grown*105/100 {
		t.Errorf("RetainedBytes = %d, but the heap grew by %d B", got, grown)
	}
	runtime.KeepAlive(tr)
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
	insts := decode(t, tr)
	last, beyond := -1, 0
	for i, in := range insts {
		if last >= 0 && i-last > MaxDep {
			beyond++
			if in.Src1 != -1 || in.Src2 != -1 {
				t.Fatalf("inst %d names a producer although the latest one, %d, is more than MaxDep back", i, last)
			}
		}
		if in.Class != isa.Store && in.Class != isa.Branch {
			last = i
		}
	}
	if beyond == 0 {
		t.Fatal("no instruction sits more than MaxDep after a producer; the profile misses the guard")
	}
}

// FuzzTraceColumns appends arbitrary instructions through a Builder and
// checks that the readers give back every accepted instruction's class,
// producers and address, that the flag predicates agree with the class,
// and that Append panics on exactly the instructions the stream cannot
// hold, leaving the Builder unchanged. With long set, MaxDep+1 ready
// instructions come first so distances can reach past MaxDep. The
// seeds round-trip the one-byte distances' edges (254 fits, 255 is the
// first to escape), 409 (the suite's farthest producer) and MaxDep, and
// addresses on loads and stores only.
func FuzzTraceColumns(f *testing.F) {
	// Each instruction takes 9 bytes: class, two operands of three
	// bytes (mode, distance low, high), address byte, branch byte. The
	// branch byte's 0x40 bit gives a non-memory instruction the address
	// too, which Append must reject.
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
	f.Add(true, []byte(""+
		"\x00\x01\xfe\x00\x01\xff\x00\x00\x00"+ // int-alu fed from 254 and 255 back
		"\x06\x01\x99\x01\x00\x00\x00\x10\x00"+ // load fed from 409 back
		"\x00\x00\x00\x00\x00\x00\x00\x10\x40"+ // int-alu with an address: rejected
		"\x07\x01\xff\xff\x01\x01\x00\x20\x00"+ // store fed from MaxDep and 1 back
		"\x08\x01\xff\x00\x00\x00\x00\x00\x81"+ // taken branch fed from 255 back
		"\x08\x00\x00\x00\x00\x00\x00\x08\xc0"+ // branch with an address: rejected
		"\x01\x01\x00\x01\x01\x00\x01\x00\x00")) // int-mult fed twice from 256 back
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
		far := func(i int, src int32) int {
			if src >= 0 && i-int(src) >= 255 {
				return 1
			}
			return 0
		}
		var kept []Inst
		escaped, mem := 0, 0
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
			isMem := in.Class == isa.Load || in.Class == isa.Store
			if !isMem && data[8]&0x40 == 0 {
				in.Addr = 0
			}
			fits := int(in.Class) < isa.NumClasses &&
				(isMem && in.Addr>>32 == 0 || !isMem && in.Addr == 0) &&
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
				escaped += far(i, in.Src1) + far(i, in.Src2)
				if isMem {
					mem++
				}
			}
		}
		tr := b.Trace(Trace{Name: "fuzz"})
		total := prefix + len(kept)
		if tr.Len() != total {
			t.Fatalf("trace has %d instructions, appended %d", tr.Len(), total)
		}
		got := decode(t, tr)
		fl := tr.Columns().Flags
		for k, in := range kept {
			i := prefix + k
			g := got[i]
			if g.Class != in.Class {
				t.Fatalf("inst %d: ClassOf = %v, want %v", i, g.Class, in.Class)
			}
			if g.Src1 != in.Src1 || g.Src2 != in.Src2 {
				t.Fatalf("inst %d: producers %d, %d, want %d, %d", i, g.Src1, g.Src2, in.Src1, in.Src2)
			}
			if g.Addr != in.Addr {
				t.Fatalf("inst %d: address %#x, want %#x", i, g.Addr, in.Addr)
			}
			branch := in.Class == isa.Branch
			f := fl[i]
			if f&FlagFP != 0 != in.Class.IsFP() || f&FlagLoad != 0 != (in.Class == isa.Load) ||
				f&FlagStore != 0 != (in.Class == isa.Store) || f&FlagBranch != 0 != branch ||
				f&FlagTaken != 0 != (branch && in.Taken) || !branch && f&FlagMispredict != 0 {
				t.Fatalf("inst %d: flags %08b disagree with %v (taken %v)", i, f, in.Class, in.Taken)
			}
		}
		// Every column is exactly as long as what it holds: three bytes
		// an instruction, two per escaped distance, four per load or
		// store, and 12 B of address index per 64 instructions.
		want := int64(3*total + 2*escaped + 4*mem + 12*((total+63)/64))
		if got := tr.RetainedBytes(); got != want {
			t.Fatalf("RetainedBytes = %d, want %d", got, want)
		}
	})
}

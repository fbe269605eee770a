package pipeline

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// The reference core: the seed's cycle-by-cycle simulator, kept as a
// differential oracle for the optimized one. It walks every cycle (no
// idle fast-forward, no ready-time wheel), wakes consumers by
// scanning every window entry on every issue (the machine's broadcast,
// simulated literally), compacts each queue after every issuing cycle,
// keeps one slot per trace instruction, and builds and prewarms a fresh
// hierarchy on every run. It is ported from the seed only as far as the
// trace's representation changed: the columns, trace.Producer,
// trace.ClassOf and the stored FlagMispredict verdicts replace the
// instruction structs and the per-run predictor. It also counts the
// wakeup accounting (WakeupWakes/WakeupScanned) the broadcast implies,
// so its Stats are comparable field for field.

// refRun simulates tr like Run, on the reference core.
func refRun(p Params, tr *trace.Trace) Stats {
	if p.Machine.InOrder {
		return refInOrder(p, tr)
	}
	return refOutOfOrder(p, tr)
}

// refEntry is one reference issue-window slot.
type refEntry struct {
	idx          int32 // trace index
	wake1, wake2 int64 // cycle each operand becomes visible; pending while awaiting a broadcast
	src1, src2   int32 // producer indices still awaited (-1 once resolved)
	preSelected  bool  // latched by a pre-selection block (Figure 12)
}

// refQueue is one reference issue window.
type refQueue struct {
	entries []refEntry
	cap     int
	segSize int
}

// newRefLat builds and prewarms a fresh hierarchy for one run.
func newRefLat(m config.Machine, tr *trace.Trace) *refLat {
	h := newHierarchy(m)
	h.Coverage = tr.PrefetchCoverage
	h.Prewarm(tr.HotBytes, tr.WarmBytes)
	return &refLat{hier: h}
}

func refOutOfOrder(p Params, tr *trace.Trace) Stats {
	m := p.Machine
	tmg := p.Timing
	cols := tr.Columns()
	flags := cols.Flags
	n := len(flags)
	if n == 0 {
		panic("pipeline: empty trace")
	}
	stages := p.WindowStages
	if stages < 1 {
		stages = 1
	}

	newQueue := func(capacity int) *refQueue {
		return &refQueue{entries: make([]refEntry, 0, capacity), cap: capacity, segSize: (capacity + stages - 1) / stages}
	}
	var queues []*refQueue
	if m.UnifiedWindow > 0 {
		queues = []*refQueue{newQueue(m.UnifiedWindow)}
	} else {
		queues = []*refQueue{newQueue(m.IntWindow), newQueue(m.FPWindow)}
	}
	queueFor := func(f uint8) *refQueue {
		if len(queues) == 2 && f&trace.FlagFP != 0 {
			return queues[1]
		}
		return queues[0]
	}
	lat := newRefLat(m, tr)

	dataAt := make([]int64, n)     // cycle a consumer may issue (post-bypass)
	completeAt := make([]int64, n) // cycle the instruction has executed
	commitAt := make([]int64, n)
	for i := range dataAt {
		dataAt[i], completeAt[i], commitAt[i] = pending, pending, pending
	}

	frontDepth := max(tmg.IL1, tmg.BPred) + 1 + tmg.Rename + 1
	frontCap := m.FetchWidth * (frontDepth + 2)
	wakeLoop := int64(tmg.Window + p.ExtraWakeup)
	if p.NaivePipelining {
		wakeLoop = int64(stages) + int64(p.ExtraWakeup)
	}

	type fq struct {
		idx     int32
		readyAt int64
	}
	var frontQ []fq
	stats := Stats{}

	var (
		cycle       int64
		fetchIdx    int
		head        int
		fetchBlock  int32 = -1
		warmCycle   int64 = -1
		warmIdx           = p.Warmup
		lastHead          = -1
		stuckCycles int64
	)
	if warmIdx >= n {
		warmIdx = 0
	}

	for head < n {
		// ---- Commit.
		committed := 0
		for head < n && committed < m.CommitWidth &&
			completeAt[head] != pending && completeAt[head] < cycle {
			commitAt[head] = cycle
			if head == warmIdx && warmCycle < 0 {
				warmCycle = cycle
			}
			head++
			committed++
		}

		// ---- Selection, issue and broadcast.
		intBudget, fpBudget := m.IntIssue, m.FPIssue
		resident := 0
		for _, q := range queues {
			resident += len(q.entries)
		}
		issuedAny := false
		for _, q := range queues {
			stats.SumWindowOcc += uint64(len(q.entries))
			issued := refIssueSelect(p, flags, q, cycle, &intBudget, &fpBudget, stages, dataAt)
			stats.SumIssued += uint64(len(issued))
			for _, w := range issued {
				issuedAny = true
				f := flags[w.idx]
				l := lat.latency(p, f, uint64(cols.Addr[w.idx]), &stats)
				completeAt[w.idx] = cycle + l
				d := cycle + max(l, wakeLoop)
				dataAt[w.idx] = d
				stats.WakeupScanned += uint64(resident)
				for _, dq := range queues {
					for wi := range dq.entries {
						e := &dq.entries[wi]
						seg := int64(0)
						if stages > 1 && !p.NaivePipelining {
							seg = int64(wi / dq.segSize)
						}
						if e.src1 == w.idx {
							e.wake1 = d + seg
							e.src1 = -1
							stats.WakeupWakes++
						}
						if e.src2 == w.idx {
							e.wake2 = d + seg
							e.src2 = -1
							stats.WakeupWakes++
						}
					}
				}
			}
		}
		if issuedAny {
			for _, q := range queues {
				keep := q.entries[:0]
				for _, e := range q.entries {
					if dataAt[e.idx] == pending {
						keep = append(keep, e)
					}
				}
				q.entries = keep
			}
		}

		// ---- Pre-selection for next cycle (Figure 12).
		if p.PreSelect != nil && stages > 1 {
			for _, q := range queues {
				refMarkPreSelections(p, q, cycle, stages)
			}
		}

		// ---- Dispatch.
		dispatchedNow := 0
		for len(frontQ) > 0 && dispatchedNow < m.FetchWidth {
			fe := frontQ[0]
			if fe.readyAt > cycle {
				break
			}
			q := queueFor(flags[fe.idx])
			if len(q.entries) >= q.cap {
				stats.WindowFullStalls++
				break
			}
			if int(fe.idx)-head >= m.ROB {
				stats.ROBFullStalls++
				break
			}
			e := refEntry{idx: fe.idx, src1: -1, src2: -1}
			e.wake1 = refResolveOperand(trace.Producer(fe.idx, cols.Dep1[fe.idx]), dataAt, completeAt, cycle, &e.src1)
			e.wake2 = refResolveOperand(trace.Producer(fe.idx, cols.Dep2[fe.idx]), dataAt, completeAt, cycle, &e.src2)
			q.entries = append(q.entries, e)
			frontQ = frontQ[1:]
			dispatchedNow++
		}

		// ---- Fetch.
		if fetchBlock >= 0 && completeAt[fetchBlock] != pending &&
			completeAt[fetchBlock]+int64(p.ExtraMispredict) <= cycle {
			fetchBlock = -1
		}
		if fetchBlock < 0 {
			slots := m.FetchWidth
			for slots > 0 && fetchIdx < n && len(frontQ) < frontCap {
				f := flags[fetchIdx]
				frontQ = append(frontQ, fq{idx: int32(fetchIdx), readyAt: cycle + int64(frontDepth)})
				slots--
				if f&trace.FlagBranch != 0 {
					stats.BranchLookups++
					if f&trace.FlagMispredict != 0 && !m.PerfectBranches {
						stats.BranchMispredict++
						fetchBlock = int32(fetchIdx)
						fetchIdx++
						break
					}
					if f&trace.FlagTaken != 0 {
						fetchIdx++
						break
					}
				}
				fetchIdx++
			}
		}

		if fetchBlock >= 0 {
			stats.FetchBlockedCycles++
		}
		stats.SimCycles++

		// ---- Watchdog.
		if head == lastHead {
			stuckCycles++
			if stuckCycles > 1_000_000 {
				panic(fmt.Sprintf("reference: no commit progress at cycle %d (head=%d, frontQ=%d)",
					cycle, head, len(frontQ)))
			}
		} else {
			lastHead = head
			stuckCycles = 0
		}
		cycle++
	}

	total := uint64(n - warmIdx)
	if warmCycle < 0 {
		warmCycle = 0
		total = uint64(n)
	}
	cycles := uint64(commitAt[n-1] - warmCycle + 1)
	stats.Instructions = total
	stats.Cycles = cycles
	stats.IPC = float64(total) / float64(cycles)
	return stats
}

// refResolveOperand is the seed's dispatch-time operand resolution over
// full-length timestamp arrays.
func refResolveOperand(src int32, dataAt, completeAt []int64, cycle int64, slot *int32) int64 {
	if src < 0 {
		return 0
	}
	if dataAt[src] != pending {
		if c := completeAt[src]; c > cycle {
			return c
		}
		return 0
	}
	*slot = src
	return pending
}

// refIssueSelect is the seed's selection: a full scan of the queue,
// oldest first.
func refIssueSelect(p Params, flags []uint8, q *refQueue, cycle int64,
	intBudget, fpBudget *int, stages int, dataAt []int64) []refEntry {

	var selected []refEntry
	for wi := range q.entries {
		if *intBudget == 0 && *fpBudget == 0 {
			break
		}
		e := &q.entries[wi]
		if dataAt[e.idx] != pending {
			continue // already issued
		}
		if e.wake1 == pending || e.wake2 == pending || e.wake1 > cycle || e.wake2 > cycle {
			continue
		}
		if p.PreSelect != nil && stages > 1 && wi >= q.segSize && !e.preSelected {
			continue
		}
		if flags[e.idx]&trace.FlagFP != 0 {
			if *fpBudget == 0 {
				continue
			}
			*fpBudget--
		} else {
			if *intBudget == 0 {
				continue
			}
			*intBudget--
		}
		selected = append(selected, *e)
	}
	return selected
}

// refMarkPreSelections is the seed's Figure 12 pre-selection.
func refMarkPreSelections(p Params, q *refQueue, cycle int64, stages int) {
	quota := make([]int, stages)
	for s := 1; s < stages; s++ {
		if s-1 < len(p.PreSelect) {
			quota[s] = p.PreSelect[s-1]
		}
	}
	for wi := range q.entries {
		e := &q.entries[wi]
		s := wi / q.segSize
		if s == 0 {
			continue
		}
		e.preSelected = false
		if s < stages && quota[s] > 0 &&
			e.wake1 != pending && e.wake2 != pending &&
			e.wake1 <= cycle && e.wake2 <= cycle {
			e.preSelected = true
			quota[s]--
		}
	}
}

// refLat is the seed's execution-latency resolution on the run's own
// hierarchy.
type refLat struct{ hier *mem.Hierarchy }

func refInOrder(p Params, tr *trace.Trace) Stats {
	m := p.Machine
	tmg := p.Timing
	cols := tr.Columns()
	flags := cols.Flags
	n := len(flags)
	if n == 0 {
		panic("pipeline: empty trace")
	}
	lat := newRefLat(m, tr)
	stats := Stats{}

	frontDepth := int64(max(tmg.IL1, tmg.BPred) + 1)
	commitDepth := int64(tmg.RegRead + 1 + 1)
	dataAt := make([]int64, n)

	var (
		fetchCycle   int64
		fetchInGroup int
		issueCycle   int64
		issueInCycle int
		fpInCycle    int
		lastCommit   int64
		prevCommit   int64
		warmCycle    int64 = -1
		warmIdx            = p.Warmup
	)
	if warmIdx >= n {
		warmIdx = 0
	}

	for i := 0; i < n; i++ {
		f := flags[i]
		if fetchInGroup >= m.FetchWidth {
			fetchCycle++
			fetchInGroup = 0
		}
		myFetch := fetchCycle
		fetchInGroup++

		earliest := myFetch + frontDepth + 1
		if earliest < issueCycle {
			earliest = issueCycle
		}
		ready := earliest
		if s := trace.Producer(int32(i), cols.Dep1[i]); s >= 0 && dataAt[s] > ready {
			ready = dataAt[s]
		}
		if s := trace.Producer(int32(i), cols.Dep2[i]); s >= 0 && dataAt[s] > ready {
			ready = dataAt[s]
		}

		isFP := f&trace.FlagFP != 0
		for {
			if ready > issueCycle {
				issueCycle = ready
				issueInCycle = 0
				fpInCycle = 0
			}
			if issueInCycle < m.IntIssue+m.FPIssue && (!isFP || fpInCycle < m.FPIssue) {
				break
			}
			ready = issueCycle + 1
		}
		issueInCycle++
		if isFP {
			fpInCycle++
		}
		issued := issueCycle

		l := lat.latency(p, f, uint64(cols.Addr[i]), &stats)
		dataAt[i] = issued + l

		if f&trace.FlagBranch != 0 {
			stats.BranchLookups++
			if f&trace.FlagMispredict != 0 && !m.PerfectBranches {
				stats.BranchMispredict++
				restart := issued + l + 1 + int64(p.ExtraMispredict)
				if restart > fetchCycle {
					fetchCycle = restart
					fetchInGroup = 0
				}
			} else if f&trace.FlagTaken != 0 {
				fetchCycle++
				fetchInGroup = 0
			}
		}

		c := dataAt[i] + commitDepth
		if c < prevCommit {
			c = prevCommit
		}
		prevCommit = c
		lastCommit = c
		if i == warmIdx {
			warmCycle = c
		}
	}

	total := uint64(n - warmIdx)
	if warmCycle < 0 {
		warmCycle = 0
		total = uint64(n)
	}
	cycles := uint64(lastCommit - warmCycle + 1)
	stats.Instructions = total
	stats.Cycles = cycles
	stats.IPC = float64(total) / float64(cycles)
	return stats
}

// latency is the seed's execLatency, switching on the decoded class.
func (r *refLat) latency(p Params, f uint8, addr uint64, stats *Stats) int64 {
	tmg := p.Timing
	switch c := trace.ClassOf(f); c {
	case isa.Load:
		lvl := mem.L1Hit
		if !p.Machine.PerfectMemory {
			lvl = r.hier.Access(addr)
		}
		var l int64
		switch lvl {
		case mem.L1Hit:
			stats.L1Hits++
			l = int64(tmg.DL1)
		case mem.L2Hit:
			stats.L2Hits++
			l = int64(tmg.L2)
		default:
			stats.MemAccesses++
			l = int64(tmg.Mem)
		}
		return l + int64(p.ExtraLoadUse)
	case isa.Store:
		if !p.Machine.PerfectMemory {
			r.hier.Access(addr)
		}
		return int64(tmg.Exec[isa.Store])
	default:
		return int64(tmg.Exec[c])
	}
}

// TestReferenceGolden proves the reference is the seed machine: it
// reproduces every field of the golden Stats grid, which was captured
// from the seed simulator, wakeup counters included.
func TestReferenceGolden(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("testdata", "golden_stats.json"))
	if err != nil {
		t.Fatalf("read goldens: %v", err)
	}
	want := map[string]goldenStats{}
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("parse goldens: %v", err)
	}
	checked := 0
	for _, bench := range []string{"176.gcc", "171.swim", "177.mesa"} {
		tr := getTrace(t, bench, 40000)
		for _, c := range goldenGrid() {
			name := bench + "/" + c.name
			w, ok := want[name]
			if !ok {
				t.Errorf("%s: not in the golden file", name)
				continue
			}
			if g := toGolden(refRun(c.p, tr)); g != w {
				t.Errorf("%s: reference diverges from the seed goldens:\n got %+v\nwant %+v", name, g, w)
			}
			checked++
		}
	}
	if checked != len(want) {
		t.Errorf("checked %d cells, golden file has %d", checked, len(want))
	}
}

// FuzzReference is the differential oracle: the optimized core, on one
// Scratch reused across every point, must produce the reference core's
// Stats on every field except the wakeup mechanism counters
// (WakeupWakes/WakeupScanned), which describe how the simulator wakes
// consumers rather than what the machine does. lanes picks up to six
// points, four bytes each: FuzzScratchReuse's three-byte table entry
// plus a byte that, when nonzero, sets the ROB size and a random DL1
// geometry (and a matching L2), so the window rings take many sizes.
// insts builds a trace of a few thousand instructions whose dependence
// distances straddle the ring sizes, the ROB sizes and trace.MaxDep,
// with sparse producers and long chains of missing loads (see
// refTrace). In-order points also run a trace longer than MaxDep, so
// their ring wraps under producers at the farthest distance a trace
// can name.
func FuzzReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0x1e, 14, 1, 5, 0x06, 4, 2, 16, 0, 2, 16, 0, 0x47},
		[]byte("\x04\xe1\x93\x10\xc0\x9a\x9b\x02\x03\x62\x66\x40\xc5\xff\xfe\x11"))
	f.Add([]byte{0, 4, 0, 0, 6, 8, 0x3f, 0xf7, 10, 32, 9, 0x81},
		[]byte("a long chain of misses behind a mispredicted branch, then wide ALU work"))
	f.Fuzz(func(t *testing.T, lanes, insts []byte) {
		params := refLanes(lanes)
		if len(params) == 0 || len(insts) < 4 {
			return
		}
		tr := refTrace(insts, 0)
		var far *trace.Trace
		s := NewScratch()
		check := func(i int, p Params, tr *trace.Trace) {
			p.Warmup = tr.Len() / 4
			got, want := RunWith(p, tr, s), refRun(p, tr)
			got.WakeupWakes, got.WakeupScanned = 0, 0
			want.WakeupWakes, want.WakeupScanned = 0, 0
			if got != want {
				t.Fatalf("point %d (%+v) on %d instructions: diverges from the reference core:\n got %+v\nwant %+v",
					i, p, tr.Len(), got, want)
			}
		}
		for i, p := range params {
			check(i, p, tr)
			if p.Machine.InOrder {
				if far == nil {
					far = refTrace(insts, trace.MaxDep+1)
				}
				check(i, p, far)
			}
		}
	})
}

// refROBs are the ROB sizes refLanes picks from: around the issue
// queues' capacities, the paper's 256, and beyond.
var refROBs = [8]int{8, 16, 24, 48, 80, 128, 256, 512}

// refLanes decodes up to six points, four bytes each: fuzzLanes's three
// bytes, then a geometry byte g. g == 0 keeps the Alpha 21264's
// structures; otherwise its low three bits pick the ROB from refROBs and
// the rest a DL1 of 1/2/4/8 ways, 32- or 64-byte blocks and 16 to 128
// sets, behind an L2 sixteen times its size.
func refLanes(b []byte) []Params {
	var ps []Params
	for ; len(b) >= 4 && len(ps) < 6; b = b[4:] {
		p := fuzzLanes(b[:3])[0]
		if g := b[3]; g != 0 {
			m := &p.Machine
			m.ROB = refROBs[g&7]
			assoc := 1 << (g >> 3 & 3)
			block := 32 << (g >> 5 & 1)
			sets := 16 << (g >> 6 & 3)
			m.Structures.DL1.CapacityBytes = block * assoc * sets
			m.Structures.DL1.BlockBytes = block
			m.Structures.DL1.Assoc = assoc
			m.Structures.L2.CapacityBytes = 16 * block * assoc * sets
			m.Structures.L2.BlockBytes = 64
			m.Structures.L2.Assoc = 4
		}
		ps = append(ps, p)
	}
	return ps
}

// refDists are the dependence distances refTrace draws from: short
// chains; both sides of the power-of-two ring sizes the window rings
// take (64 to 512) and of the ROB sizes; the paper machine's deepest
// in-flight bound (256 + 116); and the in-order ring's cap at MaxDep.
var refDists = [...]int{
	1, 2, 3, 5, 8, 15, 16, 17, 23, 24, 25, 31, 32, 33, 47, 48, 49,
	63, 64, 65, 79, 80, 81, 127, 128, 129, 255, 256, 257, 371, 372, 373,
	511, 512, 513, 1023, 1024, 1025, 32767, 32768, trace.MaxDep - 1, trace.MaxDep,
}

// refTrace builds a trace from b, four bytes per instruction, cycling
// through b; its length is 256 to 3071 instructions, chosen by b's
// first two bytes, plus pad. Per instruction:
//
//   - byte 0 picks the class; when its top four bits are set the
//     instruction is instead a load at a fresh address beyond every
//     working set that depends on the previous such load — chains of up
//     to 16 dependent misses;
//   - bytes 1 and 2 each name a producer: below 0x60 none (so the share
//     of sparse producers varies with the bytes), otherwise a distance
//     from refDists, or none when that reaches before the trace;
//   - byte 3 places a load or store, or sets a branch's direction.
func refTrace(b []byte, pad int) *trace.Trace {
	n := 256 + (int(b[0])<<8|int(b[1]))%2816 + pad
	at := func(k int) byte { return b[k%len(b)] ^ byte(k/len(b)) }
	src := func(x byte, i int) int32 {
		if x < 0x60 {
			return -1
		}
		if d := refDists[int(x)%len(refDists)]; d <= i {
			return int32(i - d)
		}
		return -1
	}
	tb := trace.NewBuilder(n)
	lastMiss, chain := int32(-1), 0
	for i := 0; i < n; i++ {
		if lastMiss >= 0 && i-int(lastMiss) > trace.MaxDep {
			lastMiss = -1
		}
		b0, b1, b2, b3 := at(4*i), at(4*i+1), at(4*i+2), at(4*i+3)
		in := trace.Inst{Class: isa.Class(int(b0) % isa.NumClasses), Src1: src(b1, i), Src2: src(b2, i)}
		if b0&0xf0 == 0xf0 {
			in = trace.Inst{Class: isa.Load, Src1: lastMiss, Src2: -1, Addr: 64<<20 + uint64(i)*4160}
			lastMiss = int32(i)
			if chain++; chain == 16 {
				chain, lastMiss = 0, -1
			}
		} else {
			switch in.Class {
			case isa.Load, isa.Store:
				in.Addr = uint64(b3) << (3 + b2%16)
			case isa.Branch:
				in.PC, in.Taken = uint32(b1), b3&1 != 0
			}
		}
		tb.Append(in)
	}
	return tb.Trace(trace.Trace{Name: "reference-fuzz", HotBytes: 16 << 10, WarmBytes: 256 << 10, PrefetchCoverage: 0.5})
}

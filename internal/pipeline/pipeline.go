// Package pipeline contains the cycle-level processor simulators at the
// heart of the reproduction: a dynamically scheduled (out-of-order) core
// modeled on the Alpha 21264 and an in-order variant of the same machine
// (Section 4.1). Both take their structure and operation latencies from a
// clock-resolved config.Timing, so scaling the pipeline depth is exactly
// the paper's methodology: pick a useful-FO4-per-stage value, derive every
// latency in cycles, and measure the IPC that survives.
//
// The out-of-order core models the critical loops the paper studies:
//
//   - the issue-wakeup loop: a dependent instruction can issue no earlier
//     than its producer's issue plus max(execution latency, wakeup-loop
//     length), where the loop length is the issue window's access latency
//     plus any Figure 8 extension;
//   - the load-use loop: loads resolve through the simulated cache
//     hierarchy, and consumers wait on the level that actually served them;
//   - the branch-resolution loop: mispredictions (from the simulated
//     tournament predictor) stall fetch until the branch executes, then
//     refill the front end, whose depth grows with clock frequency.
//
// Section 5's segmented instruction window is modeled structurally: tags
// walk one window segment per cycle, the window collapses oldest-first
// each cycle, and the partitioned selection scheme (Figure 12) limits how
// many instructions the upper stages may pre-select, one cycle ahead of
// the final selection.
//
// The simulated machine broadcasts a completing tag to every window entry
// each issue; the simulator itself does not. Dispatch registers each
// operand still awaiting its producer on that producer's waiter list, and
// issue walks the list to wake exactly the issuing instruction's resident
// consumers, at the same segment-resolved cycle the broadcast would have
// delivered — event-driven simulation of a broadcast-structured machine,
// with Stats counters (WakeupWakes vs. WakeupScanned) recording the work
// avoided. The simulator never moves a window entry either: an entry's
// state stays in its instruction's slot of the window ring, each queue is
// a bitmap over those slots walked from the commit head (so ring order is
// age order, and an entry's position in the collapsing window is the count
// of older residents), and a ready-time wheel files each scheduled entry
// under the cycle its operands become visible, so selection visits only
// ready entries. The waiter lists, the wheel and all other steady-state
// bookkeeping live in a reusable Scratch, so a run allocates nothing per
// cycle and a trace carries nothing but its instruction columns.
package pipeline

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Params configures one simulation run.
type Params struct {
	Machine config.Machine
	Timing  config.Timing

	// Critical-loop extensions in cycles over the resolved latencies
	// (Figure 8 scales these over the Alpha 21264 baseline).
	ExtraWakeup     int
	ExtraLoadUse    int
	ExtraMispredict int

	// WindowStages pipelines the issue window's wakeup into this many
	// segments (Figure 10/11). 0 or 1 means a conventional single-segment
	// window.
	WindowStages int

	// PreSelect, when non-nil, enables the Figure 12 partitioned selection
	// scheme: entry i is the maximum number of instructions stage i+2 may
	// pre-select per cycle (the paper uses {5, 2, 1} for a 4-stage window).
	// Pre-selected instructions reach the final selector one cycle later;
	// stage 1 is always fully visible to the selector.
	PreSelect []int

	// NaivePipelining, when true, models the pessimistic window pipelining
	// Stark et al. argue against: the wakeup loop simply grows to
	// WindowStages cycles for every dependence, preventing back-to-back
	// issue of dependent instructions.
	NaivePipelining bool

	// Warmup is the number of leading instructions excluded from the
	// reported IPC (caches and predictor still train on them).
	Warmup int
}

// Stats is the outcome of a run.
type Stats struct {
	Instructions uint64
	Cycles       uint64
	IPC          float64

	BranchLookups    uint64
	BranchMispredict uint64
	L1Hits           uint64
	L2Hits           uint64
	MemAccesses      uint64
	WindowFullStalls uint64
	ROBFullStalls    uint64

	// Diagnostics (out-of-order core only).
	SimCycles          uint64 // total simulated cycles including warmup
	SumWindowOcc       uint64 // window occupancy summed per cycle
	SumIssued          uint64 // instructions issued summed per cycle
	FetchBlockedCycles uint64 // cycles fetch was stalled on a mispredict

	// Wakeup accounting (out-of-order core only): WakeupWakes counts
	// operand wakeups actually delivered through the waiter lists;
	// WakeupScanned counts the window entries a per-issue broadcast scan
	// would have examined for the same schedule. Their ratio is the
	// algorithmic saving of event-driven wakeup — the simulated machine
	// still pays for the full broadcast (that is the paper's subject),
	// the simulator no longer does.
	WakeupWakes   uint64
	WakeupScanned uint64

	// Deprecated: BatchLanes and BatchSharedDecode are never set and
	// always read 0. Kept only because benchmark/serving.go assigns them.
	BatchLanes        uint64 `json:"-"`
	BatchSharedDecode uint64 `json:"-"`
}

// Run simulates tr on the configured machine and returns its statistics.
//
// Run is safe for concurrent use: all simulation state (predictor tables,
// cache hierarchy, window occupancy) lives in a fresh Scratch for the
// duration of the call, the trace is only read (immutable by contract,
// see internal/trace), and Params is passed by value. Callers with their
// own run loop hold a Scratch and use RunWith to reuse its allocations
// and its prewarmed memory template.
func Run(p Params, tr *trace.Trace) Stats { return RunWith(p, tr, nil) }

// RunWith simulates like Run but on caller-owned scratch state, reusing
// its allocations. Results are identical to Run's for any scratch
// history — every run re-initializes the state it reads — but a Scratch
// must not be shared by concurrent calls. A nil scratch is allowed and
// simulates on fresh state.
func RunWith(p Params, tr *trace.Trace, s *Scratch) Stats {
	if s == nil {
		s = NewScratch()
	}
	if p.Machine.InOrder {
		return runInOrder(p, tr, s)
	}
	return runOutOfOrder(p, tr, s)
}

const pending = math.MaxInt64

// winSlot is one in-flight instruction's issue-window state, kept on the
// window ring beside its timestamps: acc accumulates the max wake time of
// the operands scheduled so far and becomes the cycle the entry is
// selectable once its last producer delivers, src1 and src2 are the
// producers still awaited (-1 once resolved), and next links the entry
// into its ready-time wheel bucket (see readyWheel).
type winSlot struct {
	acc        int64
	src1, src2 int32
	next       int32
}

func runOutOfOrder(p Params, tr *trace.Trace, scr *Scratch) Stats {
	m := p.Machine
	tmg := p.Timing
	n := tr.Len()
	if n == 0 {
		panic("pipeline: empty trace")
	}
	stages := p.WindowStages
	if stages < 1 {
		stages = 1
	}

	// The depth-invariant columns: class flags, operand distances, data
	// addresses and the predictor's per-branch verdicts, built once when
	// the trace was (see trace.Columns) and shared by every run of it.
	cols := tr.Columns()
	flags, dep1s, dep2s, addrs := cols.Flags, cols.Dep1, cols.Dep2, cols.Addr

	hier := scr.hierarchyFor(m, tr)
	var lat latEnv
	lat.init(&p, hier)
	perfectBranches := m.PerfectBranches

	// Front-end depth in cycles: fetch (instruction cache / predictor),
	// decode, rename, dispatch.
	frontDepth := max(tmg.IL1, tmg.BPred) + 1 + tmg.Rename + 1
	// The frontend pipeline holds FetchWidth instructions per stage for
	// frontDepth stages (plus slack for dispatch backpressure).
	frontCap := m.FetchWidth * (frontDepth + 2)

	// Per-instruction dynamic state, in rings indexed by trace index &
	// ring: dispatch stalls at ROB instructions past the commit cursor
	// and fetch at frontCap past dispatch, so the in-flight instructions
	// [head, fetchIdx) each own a slot. Only they are ever read: a
	// producer below head has committed and reads as ready (see
	// resolveOperand), and commit never passes fetch.
	ringMask := scr.window(n, m.ROB+frontCap)
	ring := int32(ringMask)
	times := scr.times // paired data/complete timestamps (see instTimes)
	slots := scr.slots // issue-window state (see winSlot)

	// Issue queues: the 21264's separate integer and floating-point queues
	// by default, or one shared window when UnifiedWindow is set (the
	// Section 5 experiments use a unified 32-entry window). Each is a set
	// of ring slots (see issueQueue), so age order is ring order from the
	// commit head's slot and no entry ever moves.
	queues := scr.queues(m, stages, ringMask+1)
	intQ := queues[0]
	fpQ := queues[len(queues)-1] // same queue as intQ when unified
	nq := len(queues)
	// qpair picks an instruction's queue branch-free: trace.FlagFP is bit
	// 0, so flags[i]&trace.FlagFP is directly the index (both slots alias
	// the shared window when unified).
	qpair := [2]*issueQueue{intQ, fpQ}

	// Waiter lists: who in the window awaits each instruction's result.
	// They let issue wake a producer's actual consumers directly instead
	// of re-scanning every window entry per issued instruction. The node
	// pool restarts empty each run, reusing its storage; waitFree heads
	// its free list.
	waitHead := scr.waitHead
	waiters := scr.waiters[:0]
	waitFree := int32(-1)
	wakeLoop := int64(tmg.Window + p.ExtraWakeup)
	extraMisp := int64(p.ExtraMispredict)
	if p.NaivePipelining {
		wakeLoop = int64(stages) + int64(p.ExtraWakeup)
	}
	segmented := stages > 1 && !p.NaivePipelining
	// The ready-time wheel is sized to reach the furthest cycle an entry
	// can be scheduled for: a result's latency or the wakeup loop,
	// whichever is longer, plus the tag's walk up a segmented window.
	// Past maxWheel buckets, entries due further ahead wait in its
	// overflow list.
	span := max(lat.maxLatency(), wakeLoop)
	if segmented {
		span += int64(stages - 1)
	}
	wheel := scr.readyWheel(span)

	// Frontend queue between fetch and dispatch: fetch and dispatch both
	// walk the trace in order, so the queue is the index range
	// [dispIdx, fetchIdx) with per-instruction arrival cycles in the
	// fetchReady ring.
	fetchReady := scr.fetchReady
	dispIdx := 0
	stats := Stats{}

	selected := scr.selScratch(m.IntIssue + m.FPIssue)
	// Partitioned selection latches entries one cycle ahead of issue.
	preSel := p.PreSelect != nil && stages > 1
	var quota []int
	if preSel {
		quota = scr.quotaScratch(stages)
	}

	var (
		cycle      int64
		fetchIdx   int        // next trace index to fetch
		head       int        // oldest in-flight (ROB head)
		fetchBlock int32 = -1 // mispredicted branch blocking fetch
		// fetchResume is the cycle the blocking branch's redirect lands
		// (pending until it issues), kept in a register by the issue loop
		// so the fetch gate doesn't chase times[fetchBlock] every cycle.
		fetchResume int64 = pending
		warmCycle   int64 = -1
		warmIdx           = p.Warmup
		lastCommit  int64 // cycle the most recent commit happened
		lastHead    = -1
		stuckCycles int64
	)
	if warmIdx >= n {
		warmIdx = 0
	}

	for head < n {
		// ---- Commit: oldest first, up to CommitWidth, completed only.
		committed := 0
		// (pending is MaxInt64, so "complete < cycle" alone excludes
		// still-executing instructions; an unfetched head has no slot.)
		for head < fetchIdx && committed < m.CommitWidth && times[head&ringMask].complete < cycle {
			head++
			committed++
		}
		if committed > 0 {
			lastCommit = cycle
			// head crosses warmIdx exactly once; the cycle it does is the
			// cycle instruction warmIdx commits.
			if warmCycle < 0 && head > warmIdx {
				warmCycle = cycle
			}
		}

		// ---- Selection and issue. The entries whose operands become
		// visible this cycle leave the wheel for their queues' ready sets
		// (overflow entries the wheel now reaches first join their buckets),
		// so selection walks only selectable entries, oldest first from
		// the head's slot. Pre-selection latches (Figure 12) were set at
		// the end of the previous cycle. Queue occupancy is constant until
		// issue removes entries, so the per-cycle occupancy and the
		// per-issue broadcast-scan size are one sum up front.
		if wheel.overMin-cycle <= int64(wheel.mask) {
			wheel.refill(cycle, slots, ring)
		}
		if b := int(cycle) & wheel.mask; wheel.busy[b>>6]&(1<<uint(b&63)) != 0 {
			wheel.drain(b, slots, ring, flags, &qpair)
		}
		hs := head & ringMask
		resident := intQ.live
		if nq == 2 {
			resident += fpQ.live
		}
		stats.SumWindowOcc += uint64(resident)
		intBudget, fpBudget := m.IntIssue, m.FPIssue
		issued := selected[:0]
		for qi := 0; qi < nq; qi++ {
			q := qpair[qi&1]
			if q.nReady == 0 {
				continue // nothing selectable this cycle
			}
			from := len(issued)
			if preSel || nq == 1 {
				issued, intBudget, fpBudget = q.selectMixed(issued, flags, preSel, head, hs, ringMask, intBudget, fpBudget)
			} else {
				// A split queue, inlined: this is the simulator's hottest
				// edge. The queue holds one class, so its oldest ready
				// entries issue up to the class's budget, and the walk
				// from the head's slot stops at the last of them. Taken
				// bits are cleared as the walk goes, so a walk that wraps
				// back into the head's word finds only the slots below
				// the head there.
				budget := intBudget
				if qi == 1 {
					budget = fpBudget
				}
				take := min(budget, q.nReady)
				rb := q.ready
				wi := hs >> 6
				w := rb[wi] &^ (1<<uint(hs&63) - 1)
				for k := take; k > 0; k-- {
					for w == 0 {
						if wi++; wi == len(rb) {
							wi = 0
						}
						w = rb[wi]
					}
					bit := w & -w
					w ^= bit
					rb[wi] ^= bit
					issued = append(issued, int32(head+(wi<<6+bits.TrailingZeros64(bit)-hs)&ringMask))
				}
				q.nReady -= take
				if qi == 1 {
					fpBudget -= take
				} else {
					intBudget -= take
				}
			}
			for _, idx := range issued[from:] {
				// Non-memory instructions resolve to a fixed per-class
				// latency; only loads and stores pay the call into the
				// cache hierarchy.
				var completeLat int64
				if f := flags[idx]; f&(trace.FlagLoad|trace.FlagStore) == 0 {
					completeLat = lat.exec[trace.ClassOf(f)]
				} else {
					completeLat = lat.latency(f, uint64(addrs[idx]), &stats)
				}
				d := cycle + max(completeLat, wakeLoop)
				slot := idx & ring
				times[slot] = instTimes{data: d, complete: cycle + completeLat}
				if idx == fetchBlock {
					fetchResume = cycle + completeLat + extraMisp
				}
				q.live--
				// The issued entry leaves its queue; a segmented window
				// still counts it until the issue phase ends (below).
				if !segmented {
					q.resident[slot>>6] &^= 1 << uint(slot&63)
				}
				// Wakeup. The machine broadcasts the completing tag across
				// every window entry; the simulator walks idx's waiter list
				// and delivers to the entries that registered on it at
				// dispatch, all of them resident (a consumer cannot issue
				// before its producer). With a segmented window the tag
				// reaches segment s at d + s, so a consumer sitting in
				// segment s when the producer issues sees its operand s
				// cycles later (stage 1 sees it immediately, preserving
				// back-to-back issue for the oldest instructions). d always
				// lands beyond the current cycle, and delivery only takes
				// maxima and files entries by their ready cycle, so neither
				// delivery order nor list order can change a schedule —
				// exactly like the broadcast scan this replaces.
				stats.WakeupScanned += uint64(resident)
				for nd := waitHead[slot]; nd >= 0; {
					node := &waiters[nd]
					c, next := node.consumer, node.next
					node.next, waitFree, nd = waitFree, nd, next
					e := &slots[c&ring]
					if e.src1 != idx && e.src2 != idx {
						// The second registration of a consumer whose two
						// operands share this producer: the first resolved
						// both, and filed the entry once.
						continue
					}
					w := d
					if segmented {
						dq := qpair[flags[c]&trace.FlagFP]
						w += int64(dq.rank(hs, int(c&ring)) / dq.segSize)
					}
					if e.src1 == idx {
						e.acc = max(e.acc, w)
						e.src1 = -1
						stats.WakeupWakes++
					}
					if e.src2 == idx {
						e.acc = max(e.acc, w)
						e.src2 = -1
						stats.WakeupWakes++
					}
					if e.src1 == -1 && e.src2 == -1 {
						// Fully scheduled: the entry waits in the wheel
						// until both operands are visible.
						wheel.insert(c, e.acc, cycle, slots, ring)
					}
				}
				waitHead[slot] = -1
			}
		}
		stats.SumIssued += uint64(len(issued))
		if segmented {
			// The issue phase is over, and the issued entries leave
			// their queues (the paper's collapsing window). In a
			// segmented window they held their places until now, so
			// every wakeup this cycle saw the segment positions the
			// window had when the cycle began.
			for _, idx := range issued {
				slot := idx & ring
				qpair[flags[idx]&trace.FlagFP].resident[slot>>6] &^= 1 << uint(slot&63)
			}
		}

		// ---- Pre-selection for next cycle (Figure 12).
		if preSel {
			for _, q := range queues {
				q.markPreSelections(p.PreSelect, quota, hs)
			}
		}

		// ---- Dispatch from the frontend queue into the issue queues.
		// capStall is the stall counter a dispatch blocked on window or
		// ROB space charged, nil if none was.
		dispatchedNow := 0
		var capStall *uint64
		for dispIdx < fetchIdx && dispatchedNow < m.FetchWidth {
			if fetchReady[dispIdx&ringMask] > cycle {
				break
			}
			di := int32(dispIdx)
			q := qpair[flags[di]&trace.FlagFP]
			if q.live >= q.cap {
				stats.WindowFullStalls++
				capStall = &stats.WindowFullStalls
				break
			}
			if dispIdx-head >= m.ROB {
				stats.ROBFullStalls++
				capStall = &stats.ROBFullStalls
				break
			}
			slot := di & ring
			e := &slots[slot]
			*e = winSlot{src1: -1, src2: -1}
			w1 := resolveOperand(trace.Producer(di, dep1s[di]), head, times, ring, cycle, &e.src1)
			w2 := resolveOperand(trace.Producer(di, dep2s[di]), head, times, ring, cycle, &e.src2)
			if e.src1 == -1 && e.acc < w1 {
				e.acc = w1
			}
			if e.src2 == -1 && e.acc < w2 {
				e.acc = w2
			}
			// Register each pending operand on its producer's waiter
			// list; an entry whose two operands share a producer
			// registers twice, and the first delivery resolves both.
			for _, src := range [2]int32{e.src1, e.src2} {
				if src < 0 {
					continue
				}
				nd := waitFree
				if nd >= 0 {
					waitFree = waiters[nd].next
				} else {
					nd = int32(len(waiters))
					waiters = append(waiters, waiter{})
				}
				waiters[nd] = waiter{consumer: di, next: waitHead[src&ring]}
				waitHead[src&ring] = nd
			}
			if e.src1 == -1 && e.src2 == -1 {
				// Dispatched fully scheduled. Dispatch follows this
				// cycle's selection, so the entry can issue next cycle at
				// the earliest: if its operands are visible by then it is
				// ready now, otherwise it waits in the wheel.
				if e.acc <= cycle+1 {
					q.setReady(int(slot))
				} else {
					wheel.insert(di, e.acc, cycle, slots, ring)
				}
			}
			q.resident[slot>>6] |= 1 << uint(slot&63)
			q.live++
			dispIdx++
			dispatchedNow++
		}

		// ---- Fetch. A mispredicted branch blocks fetch until it resolves
		// (plus any Figure 8 extension of the misprediction loop); a
		// correctly-predicted taken branch just ends the fetch group.
		resumed := false
		if fetchBlock >= 0 && fetchResume <= cycle {
			fetchBlock = -1 // redirect complete; resume fetch
			fetchResume = pending
			resumed = true
		}
		fetched := false
		if fetchBlock < 0 {
			room := m.FetchWidth
			arrive := cycle + int64(frontDepth)
			for room > 0 && fetchIdx < n && fetchIdx-dispIdx < frontCap {
				fetched = true
				ff := flags[fetchIdx]
				// Claiming the slot resets it: its previous occupant
				// committed a full ring ago.
				slot := fetchIdx & ringMask
				fetchReady[slot] = arrive
				times[slot] = instTimes{data: pending, complete: pending}
				room--
				if ff&trace.FlagBranch != 0 {
					stats.BranchLookups++
					if ff&trace.FlagMispredict != 0 && !perfectBranches {
						stats.BranchMispredict++
						fetchBlock = int32(fetchIdx)
						fetchIdx++
						break
					}
					if ff&trace.FlagTaken != 0 {
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
				panic(fmt.Sprintf("pipeline: no commit progress at cycle %d (head=%d, frontQ=%d)",
					cycle, head, fetchIdx-dispIdx))
			}
		} else {
			lastHead = head
			stuckCycles = 0
		}
		cycle++

		// ---- Idle fast-forward. A cycle that committed, issued,
		// dispatched, fetched and resumed nothing leaves no state behind
		// but the cycle counter, and the next cycle anything *can* happen
		// is known from timestamps: the ROB head's completion (commit),
		// the wheel's first non-empty bucket (issue — a cycle that issued
		// nothing left no queue a ready entry), the frontend queue's head
		// arrival (dispatch), and the blocking branch's resolution
		// (fetch). A dispatch blocked on window or ROB space has an
		// arrived head and waits on an issue or commit instead, which the
		// first two bounds cover; it charges its stall counter once per
		// skipped cycle. Jumping to the earliest bound skips exactly the
		// cycles the loop would have walked through doing nothing —
		// mispredict stalls, long memory waits and full windows — after
		// accounting their per-cycle statistics in bulk. No wheel bucket
		// is skipped: the first non-empty one, or the overflow list's
		// earliest entry, bounds the jump.
		// Partitioned selection couples consecutive cycles through its
		// latches, so it never skips.
		if committed == 0 && dispatchedNow == 0 && !fetched && !resumed &&
			len(issued) == 0 && !preSel {
			next := wheel.next(cycle)
			if head < fetchIdx {
				if c := times[head&ringMask].complete; c != pending && c+1 < next {
					next = c + 1
				}
			}
			if dispIdx < fetchIdx && capStall == nil {
				if r := fetchReady[dispIdx&ringMask]; r < next {
					next = r
				}
			}
			if fetchBlock >= 0 && fetchResume < next {
				next = fetchResume
			}
			if next > cycle && next != pending {
				skipped := uint64(next - cycle)
				stats.SimCycles += skipped
				stats.SumWindowOcc += uint64(resident) * skipped
				if fetchBlock >= 0 {
					stats.FetchBlockedCycles += skipped
				}
				if capStall != nil {
					*capStall += skipped
				}
				cycle = next
			}
		}
	}

	scr.waiters = waiters // keep the pool's storage for the next run

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

// resolveOperand computes the wake time of one operand at dispatch. An
// operand with no producer (src -1) or a committed one (src below head)
// is ready: a producer commits only once complete < the commit cycle <=
// cycle, so its slot need not be read — and may already hold a younger
// instruction. If an in-flight producer has already issued, the
// scoreboard covers it and the operand is usable as soon as the value
// exists (complete — the wakeup loop taxes only in-window tag broadcasts,
// not register-file reads of older results). Otherwise the operand stays
// pending until the producer's issue delivers it through the producer's
// waiter list.
func resolveOperand(src int32, head int, times []instTimes, ring int32, cycle int64, slot *int32) int64 {
	if int(src) < head {
		return 0
	}
	t := &times[src&ring]
	if t.data != pending {
		if c := t.complete; c > cycle {
			return c
		}
		return 0
	}
	*slot = src
	return pending
}

// issueQueue is one issue window (or one of the 21264's two queues) as
// sets of window-ring slots, one bit per slot: resident holds the
// instructions sitting in the queue, ready those selectable this cycle
// (both operands visible), and latched those a pre-selection block
// latched last cycle (Figure 12). Every resident instruction lies in
// [head, head+ring), so walking a set from the commit head's slot visits
// it oldest first, and an entry's position in the machine's collapsing
// window is the count of resident slots before it on that walk (see
// rank). Dispatch sets a bit and issue clears one; no entry ever moves.
type issueQueue struct {
	resident, ready, latched []uint64

	live    int // resident entries: the occupancy capacity stalls check
	nReady  int // ready entries; selection skips the queue at 0
	cap     int
	segSize int // entries per wakeup segment
}

// reset configures the queue for a run over a window ring of ringSize
// slots, reusing its bitmap storage.
func (q *issueQueue) reset(capacity, stages, ringSize int) {
	words := (ringSize + 63) / 64
	if cap(q.resident) < words {
		q.resident = make([]uint64, words)
		q.ready = make([]uint64, words)
		q.latched = make([]uint64, words)
	}
	q.resident, q.ready, q.latched = q.resident[:words], q.ready[:words], q.latched[:words]
	clear(q.resident)
	clear(q.ready)
	clear(q.latched)
	q.cap = capacity
	q.segSize = (capacity + stages - 1) / stages
	q.live = 0
	q.nReady = 0
}

// setReady adds slot s to the queue's ready set.
func (q *issueQueue) setReady(s int) {
	q.ready[s>>6] |= 1 << uint(s&63)
	q.nReady++
}

// rank returns the number of resident entries older than the one in
// slot s, hs being the head's slot: the entry's position in the machine's
// window, which collapses oldest-first.
func (q *issueQueue) rank(hs, s int) int {
	if s < hs {
		return countBits(q.resident, hs, len(q.resident)<<6) + countBits(q.resident, 0, s)
	}
	return countBits(q.resident, hs, s)
}

// selectMixed moves the entries to issue from a queue that holds both
// classes (the unified window), or that partitioned selection gates, out
// of its ready set and appends their trace indices to sel, oldest first:
// each charges the budget its class names, and under partitioned
// selection an entry beyond stage 1 is eligible only if a pre-selection
// block latched it last cycle. It returns the remaining budgets.
func (q *issueQueue) selectMixed(sel []int32, flags []uint8, preSel bool, head, hs, ringMask, intBudget, fpBudget int) ([]int32, int, int) {
	it := ringOrder(q.ready, hs)
	beyond := false // past stage 1: ranks only grow along the walk
	for left := q.nReady; left > 0 && (intBudget > 0 || fpBudget > 0); left-- {
		s := it.next()
		if preSel && q.latched[s>>6]&(1<<uint(s&63)) == 0 {
			if !beyond && q.rank(hs, s) >= q.segSize {
				beyond = true
			}
			if beyond {
				continue
			}
		}
		idx := int32(head + (s-hs)&ringMask)
		if flags[idx]&trace.FlagFP != 0 {
			if fpBudget == 0 {
				continue
			}
			fpBudget--
		} else {
			if intBudget == 0 {
				continue
			}
			intBudget--
		}
		q.ready[s>>6] &^= 1 << uint(s&63)
		q.nReady--
		sel = append(sel, idx)
	}
	return sel, intBudget, fpBudget
}

// markPreSelections implements the Figure 12 pre-selection blocks: each
// stage beyond the first examines its ready instructions and latches up to
// its quota for the selector to consider next cycle. An entry's stage is
// its rank over the segment size; the walk visits only the ready set, from
// the head's slot hs, so the oldest ready entries of a stage latch first.
// quota is caller scratch of one slot per stage, overwritten on every call.
func (q *issueQueue) markPreSelections(preSelect, quota []int, hs int) {
	for s := 1; s < len(quota); s++ {
		n := 0
		if s-1 < len(preSelect) {
			n = preSelect[s-1]
		}
		quota[s] = n
	}
	clear(q.latched)
	it := ringOrder(q.ready, hs)
	for k := q.nReady; k > 0; k-- {
		slot := it.next()
		if s := q.rank(hs, slot) / q.segSize; s > 0 && quota[s] > 0 {
			q.latched[slot>>6] |= 1 << uint(slot&63)
			quota[s]--
		}
	}
}

// ringWalk visits the set bits of a ring bitmap in ring order from a
// starting slot: the rest of the start's word and the words after it,
// wrapping, then the start word's bits below the start.
type ringWalk struct {
	bits []uint64
	word uint64 // the current word's unvisited bits
	wi   int    // the current word's index
	left int    // words still to load
	tail uint64 // the start word's bits below the start, loaded last
}

// ringOrder starts a walk of bits from slot from.
func ringOrder(bits []uint64, from int) ringWalk {
	wi := from >> 6
	tail := uint64(1)<<uint(from&63) - 1
	return ringWalk{bits: bits, word: bits[wi] &^ tail, wi: wi, left: len(bits), tail: tail}
}

// next returns the walk's next set slot, or -1 once every bit was visited.
func (w *ringWalk) next() int {
	for w.word == 0 {
		if w.left == 0 {
			return -1
		}
		w.left--
		if w.wi++; w.wi == len(w.bits) {
			w.wi = 0
		}
		w.word = w.bits[w.wi]
		if w.left == 0 {
			w.word &= w.tail
		}
	}
	s := w.wi<<6 + bits.TrailingZeros64(w.word)
	w.word &= w.word - 1
	return s
}

// countBits returns the number of set bits of b in positions [lo, hi).
func countBits(b []uint64, lo, hi int) int {
	if lo >= hi {
		return 0
	}
	wl, wh := lo>>6, (hi-1)>>6
	first := ^uint64(0) << uint(lo&63)
	last := ^uint64(0) >> uint(63-(hi-1)&63)
	if wl == wh {
		return bits.OnesCount64(b[wl] & first & last)
	}
	n := bits.OnesCount64(b[wl]&first) + bits.OnesCount64(b[wh]&last)
	for _, w := range b[wl+1 : wh] {
		n += bits.OnesCount64(w)
	}
	return n
}

// readyWheel holds the fully scheduled window entries whose operands are
// not visible yet, filed by the cycle they become so: bucket b lists,
// through winSlot.next, the trace indices of the entries ready at the one
// coming cycle congruent to b modulo the wheel's size, and busy has a bit
// per non-empty bucket. An entry due beyond the wheel's reach (more than
// mask cycles ahead) waits instead in the overflow list, linked the same
// way, whose earliest cycle is overMin; refill moves such entries into
// their buckets once the wheel reaches them. So no bucket ever mixes two
// cycles, and each cycle's drain moves exactly its own entries to their
// queues' ready sets. A completed run leaves every bucket and the
// overflow list empty.
type readyWheel struct {
	bucket  []int32 // first trace index per bucket, -1 when empty
	busy    []uint64
	mask    int
	over    int32 // first overflow entry, -1 when none
	overMin int64 // earliest cycle in the overflow list, pending when none
}

// insert files instruction idx, in ring slot idx&ring, for cycle at, as
// of the current cycle now.
func (w *readyWheel) insert(idx int32, at, now int64, slots []winSlot, ring int32) {
	e := &slots[idx&ring]
	if at-now > int64(w.mask) {
		e.next, w.over = w.over, idx
		w.overMin = min(w.overMin, at)
		return
	}
	b := int(at) & w.mask
	e.next = w.bucket[b]
	w.bucket[b] = idx
	w.busy[b>>6] |= 1 << uint(b&63)
}

// refill re-files the overflow list as of cycle now: the entries the
// wheel now reaches go to their buckets, the rest back to the list.
func (w *readyWheel) refill(now int64, slots []winSlot, ring int32) {
	c := w.over
	w.over, w.overMin = -1, pending
	for c >= 0 {
		e := &slots[c&ring]
		next := e.next
		w.insert(c, e.acc, now, slots, ring)
		c = next
	}
}

// drain moves the entries of bucket b, the current cycle's, into their
// queues' ready sets.
func (w *readyWheel) drain(b int, slots []winSlot, ring int32, flags []uint8, qpair *[2]*issueQueue) {
	for c := w.bucket[b]; c >= 0; c = slots[c&ring].next {
		qpair[flags[c]&trace.FlagFP].setReady(int(c & ring))
	}
	w.bucket[b] = -1
	w.busy[b>>6] &^= 1 << uint(b&63)
}

// next returns the first cycle at or after cycle that has entries filed,
// in a bucket or the overflow list, or pending when the wheel is empty.
func (w *readyWheel) next(cycle int64) int64 {
	b := int(cycle) & w.mask
	it := ringOrder(w.busy, b)
	if s := it.next(); s >= 0 {
		return min(cycle+int64((s-b)&w.mask), w.overMin)
	}
	return w.overMin
}

// latEnv is the per-run execution-latency context: the clock-resolved
// per-class latencies and the memory system flattened out of Params, so
// the per-issue hot path reads a few scalars instead of copying the
// whole Params struct per instruction.
type latEnv struct {
	exec          [isa.NumClasses]int64
	dl1, l2, mem  int64
	extraLoadUse  int64
	perfectMemory bool
	hier          *mem.Hierarchy
}

func (e *latEnv) init(p *Params, hier *mem.Hierarchy) {
	for c := 0; c < isa.NumClasses; c++ {
		e.exec[c] = int64(p.Timing.Exec[c])
	}
	e.dl1 = int64(p.Timing.DL1)
	e.l2 = int64(p.Timing.L2)
	e.mem = int64(p.Timing.Mem)
	e.extraLoadUse = int64(p.ExtraLoadUse)
	e.perfectMemory = p.Machine.PerfectMemory
	e.hier = hier
}

// maxLatency returns the longest latency an instruction can resolve to.
func (e *latEnv) maxLatency() int64 {
	l := max(e.dl1, e.l2, e.mem) + e.extraLoadUse
	for _, x := range e.exec {
		l = max(l, x)
	}
	return l
}

// latency returns the total execution latency of an instruction in
// cycles, resolving loads through the cache hierarchy.
func (e *latEnv) latency(f uint8, addr uint64, stats *Stats) int64 {
	switch {
	case f&trace.FlagLoad != 0:
		lvl := mem.L1Hit
		if !e.perfectMemory {
			lvl = e.hier.Access(addr)
		}
		// Table 3's DL1 row is the full load-use latency (the 21264's row
		// reads 3 cycles, its real load-use delay); L2 and memory
		// latencies are likewise total hit latencies.
		var lat int64
		switch lvl {
		case mem.L1Hit:
			stats.L1Hits++
			lat = e.dl1
		case mem.L2Hit:
			stats.L2Hits++
			lat = e.l2
		default:
			stats.MemAccesses++
			lat = e.mem
		}
		return lat + e.extraLoadUse
	case f&trace.FlagStore != 0:
		if !e.perfectMemory {
			e.hier.Access(addr)
		}
		return e.exec[isa.Store]
	default:
		return e.exec[trace.ClassOf(f)]
	}
}

// newHierarchy builds the machine's data memory system.
func newHierarchy(m config.Machine) *mem.Hierarchy {
	if m.Cray1SMemory {
		return mem.NewFlat()
	}
	s := m.Structures
	return mem.NewHierarchy(
		mem.NewCache(s.DL1.CapacityBytes, s.DL1.BlockBytes, s.DL1.Assoc),
		mem.NewCache(s.L2.CapacityBytes, s.L2.BlockBytes, s.L2.Assoc),
	)
}

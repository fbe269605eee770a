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
// walk one window segment per cycle, the window compacts oldest-first each
// cycle, and the partitioned selection scheme (Figure 12) limits how many
// instructions the upper stages may pre-select, one cycle ahead of the
// final selection.
//
// The simulated machine broadcasts a completing tag to every window entry
// each issue; the simulator itself does not. Dispatch registers each
// operand still awaiting its producer on that producer's waiter list, and
// issue walks the list to wake exactly the issuing instruction's resident
// consumers, at the same segment-resolved cycle the broadcast would have
// delivered — event-driven simulation of a broadcast-structured machine,
// with Stats counters (WakeupWakes vs. WakeupScanned) recording the work
// avoided. The waiter lists and all other steady-state bookkeeping live in
// a reusable Scratch, so a run allocates nothing per cycle and a trace
// carries nothing but its instruction columns.
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

// winEntry is one issue-window slot's cold state. Its readiness lives in
// the queue's parallel ready array (one timestamp per slot) so the
// selection scan touches eight bytes per entry and only selectable
// entries load the rest: acc accumulates the max wake time of the
// operands scheduled so far and becomes the ready timestamp when the
// last producer delivers.
type winEntry struct {
	acc         int64 // max wake time over the operands scheduled so far
	idx         int32 // trace index
	src1, src2  int32 // producer indices still awaited (-1 once resolved)
	preSelected bool  // latched by a pre-selection block (Figure 12)
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

	// Issue queues: the 21264's separate integer and floating-point queues
	// by default, or one shared window when UnifiedWindow is set (the
	// Section 5 experiments use a unified 32-entry window). Segmentation
	// divides each queue into equal stages.
	queues := scr.queues(m, stages)
	intQ := queues[0]
	fpQ := queues[len(queues)-1] // same queue as intQ when unified
	nq := len(queues)
	// qpair picks an instruction's queue branch-free: trace.FlagFP is bit
	// 0, so flags[i]&trace.FlagFP is directly the index (both slots alias
	// the shared window when unified).
	qpair := [2]*issueQueue{intQ, fpQ}

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
	times := scr.times       // paired data/complete timestamps (see instTimes)
	queuePos := scr.queuePos // issue-queue position while resident
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

	// Frontend queue between fetch and dispatch: fetch and dispatch both
	// walk the trace in order, so the queue is the index range
	// [dispIdx, fetchIdx) with per-instruction arrival cycles in the
	// fetchReady ring.
	fetchReady := scr.fetchReady
	dispIdx := 0
	stats := Stats{}

	selected := scr.selScratch(m.IntIssue + m.FPIssue)
	// Partitioned selection latches entries one cycle ahead of issue, so
	// its queues must be scanned every cycle; everywhere else the
	// next-ready bound lets stall cycles skip the selection scan.
	preSel := p.PreSelect != nil && stages > 1
	segmented := stages > 1 && !p.NaivePipelining
	// Lazy compaction defers the removal of issued entries until the queue
	// arrays' slack is exhausted (see issueQueue.compact). It is valid
	// exactly when entry positions carry no semantics: single-segment
	// windows and naive pipelining wake every consumer with segment 0, and
	// partitioned selection is position-addressed, so segmented
	// non-preselect machines compact eagerly every issuing cycle.
	lazy := !preSel && (stages == 1 || p.NaivePipelining)
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

	// issueBudget per class cluster, reset each cycle.
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

		// ---- Selection and issue. Pre-selection latches (Figure 12) were
		// set at the end of the previous cycle via preSelected flags.
		// Queue occupancy is constant until issue removes entries, so the
		// per-cycle occupancy and the per-issue broadcast-scan size are
		// one sum up front.
		resident := intQ.live
		if nq == 2 {
			resident += fpQ.live
		}
		stats.SumWindowOcc += uint64(resident)
		intBudget, fpBudget := m.IntIssue, m.FPIssue
		mixed := nq == 1 // the unified window holds both classes
		var issuedFrom [2]bool
		for qi := 0; qi < nq; qi++ {
			q := qpair[qi&1]
			if !preSel && cycle < q.nextReady {
				continue // provably nothing selectable this cycle
			}
			var issued []int32
			if !preSel && !mixed {
				// Split-queue scan, inlined from issueSelect's uniform
				// path: this is the simulator's hottest edge (it runs for
				// every queue on every non-gated cycle), and keeping it in
				// the loop body spares the call and its argument traffic.
				// Semantics are identical — the batch golden and property
				// tests pin both paths against each other.
				sel := selected[:0]
				nextReady := int64(pending)
				budget := intBudget
				if qi == 1 {
					budget = fpBudget
				}
				ready := q.ready
			scan:
				for k, w := range q.sched[:uint(len(ready)+63)>>6] {
					for w != 0 {
						wi := k<<6 + bits.TrailingZeros64(w)
						w &= w - 1
						if r := ready[wi]; r > cycle {
							if r < nextReady {
								nextReady = r
							}
							continue
						}
						if budget == 0 {
							nextReady = cycle + 1
							break scan
						}
						budget--
						sel = append(sel, q.entries[wi].idx)
					}
				}
				if qi == 1 {
					fpBudget = budget
				} else {
					intBudget = budget
				}
				q.nextReady = nextReady
				issued = sel
			} else {
				var nextReady int64
				issued, nextReady, intBudget, fpBudget = issueSelect(flags, q, cycle, intBudget, fpBudget, preSel, mixed, qi == 1, selected[:0])
				q.nextReady = nextReady
			}
			stats.SumIssued += uint64(len(issued))
			if len(issued) > 0 {
				issuedFrom[qi] = true
			}
			for _, idx := range issued {
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
				times[idx&ring] = instTimes{data: d, complete: cycle + completeLat}
				if idx == fetchBlock {
					fetchResume = cycle + completeLat + extraMisp
				}
				// Tombstone the issued entry; compaction removes it either
				// this cycle (eager) or when the arrays fill (lazy). Its
				// ready slot goes to pending so the selection scan skips
				// it, its operands were already resolved (src fields are
				// -1), so no same-cycle consumer walk can match it.
				slot := idx & ring
				pos := queuePos[slot] & qposMask
				q.entries[pos].idx = -1
				q.ready[pos] = pending
				q.sched[pos>>6] &^= 1 << uint(pos&63)
				q.live--
				if int(pos) < q.firstGap {
					q.firstGap = int(pos)
				}
				queuePos[slot] = -1
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
				// maxima, minima and bit-sets, so neither delivery order
				// nor list order can change a schedule — exactly like the
				// broadcast scan this replaces.
				stats.WakeupScanned += uint64(resident)
				for nd := waitHead[slot]; nd >= 0; {
					node := &waiters[nd]
					c, next := node.consumer, node.next
					node.next, waitFree, nd = waitFree, nd, next
					pq := queuePos[c&ring]
					// queuePos carries the consumer's queue in its high
					// bit, so delivery needs no second lookup into flags.
					dq := qpair[pq>>qposQueueShift]
					pos := pq & qposMask
					e := &dq.entries[pos]
					seg := int64(0)
					if segmented {
						seg = int64(int(pos) / dq.segSize)
					}
					if e.src1 == idx {
						if w := d + seg; w > e.acc {
							e.acc = w
						}
						e.src1 = -1
						stats.WakeupWakes++
					}
					if e.src2 == idx {
						if w := d + seg; w > e.acc {
							e.acc = w
						}
						e.src2 = -1
						stats.WakeupWakes++
					}
					if e.src1 == -1 && e.src2 == -1 {
						// Fully scheduled: the entry becomes selectable
						// once both operands are visible; lower the
						// queue's next-ready bound to match.
						dq.ready[pos] = e.acc
						dq.sched[pos>>6] |= 1 << uint(pos&63)
						if e.acc < dq.nextReady {
							dq.nextReady = e.acc
						}
					}
				}
				waitHead[slot] = -1
			}
		}
		// Remove issued entries (the paper's collapsing window). Machines
		// whose entry positions carry semantics compact every issuing
		// cycle; everyone else defers to dispatch, which compacts only
		// when a queue's array slack runs out.
		if !lazy {
			for qi := 0; qi < nq; qi++ {
				if issuedFrom[qi] {
					qpair[qi&1].compact(queuePos, ring, int32(qi&1)<<qposQueueShift)
				}
			}
		}

		// ---- Pre-selection for next cycle (Figure 12).
		if preSel {
			for _, q := range queues {
				markPreSelections(p.PreSelect, q, cycle, stages, quota)
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
			qsel := flags[di] & trace.FlagFP
			q := qpair[qsel]
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
			if len(q.entries) == cap(q.entries) {
				// Lazy mode: the array's slack is spent on tombstones
				// (live < cap guarantees there are some); reclaim it.
				q.compact(queuePos, ring, int32(qsel)<<qposQueueShift)
			}
			e := winEntry{idx: di, src1: -1, src2: -1}
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
			readyAt := int64(pending)
			scheduled := e.src1 == -1 && e.src2 == -1
			if scheduled {
				// Dispatched fully scheduled: it can issue once both
				// operands are visible, no earlier than the next cycle
				// (dispatch follows this cycle's selection).
				readyAt = e.acc
				c := max(e.acc, cycle+1)
				if c < q.nextReady {
					q.nextReady = c
				}
			}
			pos := len(q.entries)
			queuePos[di&ring] = int32(pos) | int32(qsel)<<qposQueueShift
			q.entries = append(q.entries, e)
			q.ready = append(q.ready, readyAt)
			if scheduled {
				q.sched[pos>>6] |= 1 << uint(pos&63)
			}
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
			slots := m.FetchWidth
			arrive := cycle + int64(frontDepth)
			for slots > 0 && fetchIdx < n && fetchIdx-dispIdx < frontCap {
				fetched = true
				ff := flags[fetchIdx]
				// Claiming the slot resets it: its previous occupant
				// committed a full ring ago.
				slot := fetchIdx & ringMask
				fetchReady[slot] = arrive
				times[slot] = instTimes{data: pending, complete: pending}
				slots--
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
		// is bounded below by known timestamps: the ROB head's completion
		// (commit), each queue's next-ready bound (issue — a true lower
		// bound, see issueSelect), the frontend queue's head arrival
		// (dispatch), and the blocking branch's resolution (fetch). A
		// dispatch blocked on window or ROB space has an arrived head and
		// waits on an issue or commit instead, which the first two bounds
		// cover; it charges its stall counter once per skipped cycle.
		// Jumping to the earliest bound skips exactly the cycles the loop
		// would have walked through doing nothing — mispredict stalls,
		// long memory waits and full windows — after accounting their
		// per-cycle statistics in bulk.
		// Partitioned selection couples consecutive cycles through its
		// latches, so it never skips.
		if committed == 0 && dispatchedNow == 0 && !fetched && !resumed &&
			!issuedFrom[0] && !issuedFrom[1] && !preSel {
			next := int64(pending)
			if head < fetchIdx {
				if c := times[head&ringMask].complete; c != pending {
					next = c + 1
				}
			}
			if intQ.nextReady < next {
				next = intQ.nextReady
			}
			if nq == 2 && fpQ.nextReady < next {
				next = fpQ.nextReady
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

// issueQueue is one issue window (or one of the 21264's two queues),
// kept as parallel arrays: ready holds each slot's selection timestamp
// (the cycle both operands are visible, or pending while any operand
// still awaits its producer's wakeup) and entries the per-slot cold
// state, so the per-cycle selection scan walks a dense timestamp array.
type issueQueue struct {
	ready   []int64
	entries []winEntry
	cap     int
	segSize int // entries per wakeup segment

	// live counts the resident (non-tombstone) entries; it is the queue's
	// occupancy for capacity stalls and window-occupancy statistics. With
	// eager compaction live == len(entries) between cycles; with lazy
	// compaction issued entries linger as tombstones until the array's
	// slack runs out, so len(entries) overcounts.
	live int

	// firstGap is the oldest tombstoned slot, the position compaction can
	// start rewriting from (entries below it never move). intMax while the
	// queue has no tombstones.
	firstGap int

	// sched holds one bit per slot, set while the slot's entry is fully
	// scheduled (both operands resolved, ready[slot] != pending) — the
	// selection candidates. The per-cycle scan walks set bits instead of
	// every slot, so entries still awaiting a producer and tombstones cost
	// nothing. Maintained at dispatch, wakeup delivery, issue and
	// compaction; the partitioned-selection scan ignores it (its latches,
	// not readiness, gate eligibility beyond stage 1).
	sched []uint64

	// nextReady is a lower bound on the next cycle at which any resident
	// entry could issue; while cycle < nextReady the selection scan is
	// skipped entirely (see issueSelect for how the bound is maintained).
	// It is advisory-low only — a stale small value costs a wasted scan,
	// never a changed schedule — and is ignored under partitioned
	// selection, whose latches couple consecutive cycles.
	nextReady int64
}

const intMax = int(^uint(0) >> 1)

// queuePos slots pack the instruction's queue into one high bit next to
// its position, so wakeup delivery resolves a consumer's queue and slot
// with the single queuePos load (-1, the absent marker, stays negative).
const (
	qposQueueShift = 30
	qposMask       = 1<<qposQueueShift - 1
)

// reset configures the queue for a run, reusing the entry storage. The
// arrays carry a slack of one extra capacity so lazy compaction runs once
// per ~capacity dispatches instead of once per issuing cycle.
func (q *issueQueue) reset(capacity, stages int) {
	if cap(q.entries) < 2*capacity {
		q.entries = make([]winEntry, 0, 2*capacity)
		q.ready = make([]int64, 0, 2*capacity)
	}
	q.entries = q.entries[:0]
	q.ready = q.ready[:0]
	if words := (cap(q.entries) + 63) / 64; len(q.sched) < words {
		q.sched = make([]uint64, words)
	}
	for i := range q.sched {
		q.sched[i] = 0
	}
	q.cap = capacity
	q.segSize = (capacity + stages - 1) / stages
	q.live = 0
	q.firstGap = intMax
	q.nextReady = 0
}

// compact rewrites the queue's arrays without the tombstones of issued
// entries, restoring live == len(entries). Entries keep their relative
// (age) order; slots older than the first gap keep their positions, so
// the rewrite starts there. This is the paper's collapsing window: under
// eager compaction (segmented wakeup, whose visibility segments are
// position-dependent) it runs every issuing cycle; under lazy compaction
// it runs only when the array's slack is exhausted, amortizing the copies
// over ~capacity dispatches. qbit is the queue's qposQueueShift-encoded
// identity, re-stamped on every rewritten queuePos slot (ring masks a
// trace index to its slot).
func (q *issueQueue) compact(queuePos []int32, ring, qbit int32) {
	start := q.firstGap
	if start >= len(q.entries) {
		q.firstGap = intMax
		return
	}
	// The scheduled bitmap is position-indexed: bits below start stay (those
	// entries do not move), the rest are rebuilt in the same pass that
	// assigns the new positions.
	w0 := start >> 6
	q.sched[w0] &= 1<<uint(start&63) - 1
	for i := w0 + 1; i < len(q.sched); i++ {
		q.sched[i] = 0
	}
	keep := q.entries[:start]
	keepReady := q.ready[:start]
	for wi := start; wi < len(q.entries); wi++ {
		e := q.entries[wi]
		if e.idx >= 0 {
			pos := len(keep)
			queuePos[e.idx&ring] = int32(pos) | qbit
			keep = append(keep, e)
			r := q.ready[wi]
			keepReady = append(keepReady, r)
			if r != pending {
				q.sched[pos>>6] |= 1 << uint(pos&63)
			}
		}
	}
	q.entries = keep
	q.ready = keepReady
	q.firstGap = intMax
}

// issueSelect picks the instructions to issue from one queue this cycle,
// honouring the shared issue widths, the segmented-wakeup visibility times,
// and (when enabled) the partitioned selection quotas. It appends the
// selected trace indices to sel, oldest first, returning the filled slice
// (caller-provided scratch; never allocates at steady state) and the
// remaining budgets (taken and returned by value so the scan loop keeps
// them in registers).
//
// The second result is the queue's next-ready bound: the earliest cycle
// at which this queue could select anything, given what this scan saw. An
// entry whose operands are both scheduled contributes their max wake
// time; an entry that was ready but lost to a budget (it stays resident)
// forces cycle+1; a scan cut short by budget exhaustion learns nothing
// beyond cycle+1. Entries still awaiting a producer contribute nothing —
// the wakeup delivery that schedules them lowers the queue's bound at
// delivery time. Wake deliveries always land beyond the current cycle
// (every resolved latency is at least one cycle), so the bound being a
// true lower bound means skipped scans select exactly what a real scan
// would have: nothing.
// mixed says the queue can hold both instruction classes (the unified
// window); a split queue holds exactly one class (fp says which), so its
// scan charges a single budget without consulting the per-instruction
// flags at all.
func issueSelect(flags []uint8, q *issueQueue, cycle int64,
	intBudget, fpBudget int, preSel, mixed, fp bool, sel []int32) ([]int32, int64, int, int) {

	nextReady := int64(pending)
	ready := q.ready
	if preSel {
		// Partitioned selection latches gate eligibility beyond stage 1,
		// so the scan walks every slot the old-fashioned way. These
		// queues compact eagerly: resident slots are always un-issued.
		for wi := range ready {
			if intBudget == 0 && fpBudget == 0 {
				nextReady = cycle + 1
				break
			}
			if r := ready[wi]; r > cycle {
				if r < nextReady {
					nextReady = r
				}
				continue
			}
			e := &q.entries[wi]
			// Instructions beyond stage 1 are only eligible if a
			// pre-selection block latched them last cycle.
			if wi >= q.segSize && !e.preSelected {
				nextReady = cycle + 1
				continue
			}
			if flags[e.idx]&trace.FlagFP != 0 {
				if fpBudget == 0 {
					nextReady = cycle + 1
					continue
				}
				fpBudget--
			} else {
				if intBudget == 0 {
					nextReady = cycle + 1
					continue
				}
				intBudget--
			}
			sel = append(sel, e.idx)
		}
		return sel, nextReady, intBudget, fpBudget
	}

	// Sparse scan: only fully scheduled entries (sched bit set) can be
	// selectable, and the bitmap walks them oldest-first. Entries still
	// awaiting a producer contribute nothing to the next-ready bound (the
	// wakeup delivery that schedules them lowers it at delivery time), and
	// tombstones have no bit, so neither costs a slot visit.
	if !mixed {
		// Single-class queue: one budget, and no flags lookup per entry.
		// Once the budget is gone nothing further can be selected, so the
		// scan ends with the (always valid) cycle+1 bound instead of
		// walking the rest of the bitmap for a sharper one.
		budget := intBudget
		if fp {
			budget = fpBudget
		}
		for k, w := range q.sched[:uint(len(ready)+63)>>6] {
			for w != 0 {
				wi := k<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				if r := ready[wi]; r > cycle {
					if r < nextReady {
						nextReady = r
					}
					continue
				}
				if budget == 0 {
					if fp {
						return sel, cycle + 1, intBudget, 0
					}
					return sel, cycle + 1, 0, fpBudget
				}
				budget--
				sel = append(sel, q.entries[wi].idx)
			}
		}
		if fp {
			return sel, nextReady, intBudget, budget
		}
		return sel, nextReady, budget, fpBudget
	}
	for k, w := range q.sched[:uint(len(ready)+63)>>6] {
		for w != 0 {
			if intBudget == 0 && fpBudget == 0 {
				return sel, cycle + 1, intBudget, fpBudget
			}
			wi := k<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if r := ready[wi]; r > cycle {
				if r < nextReady {
					nextReady = r
				}
				continue
			}
			e := &q.entries[wi]
			if flags[e.idx]&trace.FlagFP != 0 {
				if fpBudget == 0 {
					nextReady = cycle + 1
					continue
				}
				fpBudget--
			} else {
				if intBudget == 0 {
					nextReady = cycle + 1
					continue
				}
				intBudget--
			}
			sel = append(sel, e.idx)
		}
	}
	return sel, nextReady, intBudget, fpBudget
}

// markPreSelections implements the Figure 12 pre-selection blocks: each
// stage beyond the first examines its ready instructions and latches up to
// its quota for the selector to consider next cycle. quota is caller
// scratch of at least stages slots, overwritten on every call.
func markPreSelections(preSelect []int, q *issueQueue, cycle int64, stages int, quota []int) {
	for s := 1; s < stages; s++ {
		n := 0
		if s-1 < len(preSelect) {
			n = preSelect[s-1]
		}
		quota[s] = n
	}
	ready := q.ready
	for wi := range q.entries {
		e := &q.entries[wi]
		s := wi / q.segSize
		if s == 0 {
			continue
		}
		e.preSelected = false
		if s < stages && quota[s] > 0 && ready[wi] <= cycle {
			e.preSelected = true
			quota[s]--
		}
	}
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

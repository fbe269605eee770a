// Package cacti is an analytical access-time model for on-chip
// microarchitectural structures in the style of Cacti 3.0 (Shivakumar and
// Jouppi), the tool the paper uses to derive Table 3. It models three
// structure families:
//
//   - RAM arrays (register files, rename tables, predictor tables) as
//     decode → wordline → bitline → sense → output stages over an
//     optimally sub-banked array;
//   - caches as a RAM data array plus a tag array, comparators and output
//     mux, plus a routing-wire term that grows with the square root of
//     capacity (big SRAMs are wire-dominated);
//   - CAM arrays (the instruction issue window) as tag broadcast across
//     the entries, per-entry comparison, and the OR reduction producing the
//     ready signal, following Palacharla, Jouppi and Smith's decomposition.
//
// All delays are returned in FO4 at the paper's 100nm design point, so they
// combine directly with fo4.Clock.CyclesForWork. The model constants are
// calibrated against the access times the paper quotes (register file
// 0.39 ns, level-1 data cache ≈1.15 ns, and the Table 3 cycle grid); see
// the package tests.
package cacti

import "math"

// Model holds the calibration constants of the analytical timing model.
// All k-constants are in FO4 units.
type Model struct {
	KDecode  float64 // per decoded address bit
	KWordSeg float64 // per 64 cell-widths of wordline, per port factor
	KBitSeg  float64 // per 64 cells of bitline, per port factor
	KSense   float64 // sense amplifier
	KOutput  float64 // output driver, per log2(subarrays)
	KFixed   float64 // fixed front-end (input drivers, predecode)

	KWire float64 // routing wire, per sqrt(byte) of total capacity

	KCompare float64 // tag comparator
	KMuxSel  float64 // way-select mux per log2(assoc)

	KCamFixed  float64 // CAM front-end: payload RAM read and drivers
	KBroadcast float64 // CAM tag broadcast per entry per port factor
	KMatch     float64 // CAM per-entry match (compare) delay
	KOrTree    float64 // CAM OR-reduce per log2(tag bits)

	MaxSplit int // maximum subarray split factor explored per dimension
}

// Default100nm is the calibrated model at 100nm. Constants were fitted so
// the structures of the Alpha 21264 land on the paper's quoted access times
// (see the anchors in internal/config).
var Default100nm = Model{
	KDecode:  0.75,
	KWordSeg: 0.42,
	KBitSeg:  0.42,
	KSense:   1.5,
	KOutput:  0.45,
	KFixed:   1.5,
	KWire:    0.075,
	KCompare: 2.0,
	KMuxSel:  0.8,

	KCamFixed:  10.2,
	KBroadcast: 0.11,
	KMatch:     2.0,
	KOrTree:    0.80,

	MaxSplit: 64,
}

// portFactor converts a port count into the wire-length multiplier of the
// cell array: each extra port adds roughly half a cell pitch in both
// dimensions.
func portFactor(ports int) float64 {
	if ports < 1 {
		ports = 1
	}
	return 0.5 + 0.5*float64(ports)
}

func log2(x float64) float64 {
	if x <= 1 {
		return 0
	}
	return math.Log2(x)
}

// RAMConfig describes a RAM-style structure.
type RAMConfig struct {
	Entries int // addressable rows
	Bits    int // bits per entry
	Ports   int // total read+write ports
}

// RAMAccessFO4 returns the access time of a RAM structure in FO4,
// choosing the sub-banking (power-of-two splits in both dimensions) that
// minimizes delay, as Cacti does.
func (m Model) RAMAccessFO4(c RAMConfig) float64 {
	if c.Entries < 1 || c.Bits < 1 {
		panic("cacti: RAM needs at least one entry and one bit")
	}
	pf := portFactor(c.Ports)
	best := math.Inf(1)
	for dbl := 1; dbl <= m.MaxSplit; dbl *= 2 { // bitline (row) splits
		for dwl := 1; dwl <= m.MaxSplit; dwl *= 2 { // wordline (col) splits
			rows := float64(c.Entries) / float64(dbl)
			cols := float64(c.Bits) / float64(dwl)
			if rows < 1 || cols < 1 {
				continue
			}
			nsub := float64(dbl * dwl)
			d := m.KFixed +
				m.KDecode*log2(rows) +
				m.KWordSeg*(cols/64)*pf +
				m.KBitSeg*(rows/64)*pf +
				m.KSense +
				m.KOutput*(1+log2(nsub))
			if d < best {
				best = d
			}
		}
	}
	return best
}

// CacheConfig describes a set-associative cache.
type CacheConfig struct {
	CapacityBytes int
	BlockBytes    int
	Assoc         int
	Ports         int
}

// Sets returns the number of cache sets.
func (c CacheConfig) Sets() int {
	s := c.CapacityBytes / (c.BlockBytes * c.Assoc)
	if s < 1 {
		s = 1
	}
	return s
}

// CacheAccessFO4 returns the cache access time in FO4: the slower of the
// data and tag paths, plus way select, plus a routing term that grows with
// the square root of capacity (floorplan wire length).
func (m Model) CacheAccessFO4(c CacheConfig) float64 {
	if c.CapacityBytes < c.BlockBytes*c.Assoc {
		panic("cacti: cache smaller than one set")
	}
	sets := c.Sets()
	data := m.RAMAccessFO4(RAMConfig{
		Entries: sets,
		Bits:    c.BlockBytes * 8 * c.Assoc,
		Ports:   c.Ports,
	})
	// Tag path: ~28 tag bits per way, then comparison.
	tag := m.RAMAccessFO4(RAMConfig{
		Entries: sets,
		Bits:    28 * c.Assoc,
		Ports:   c.Ports,
	}) + m.KCompare
	path := math.Max(data, tag)
	wire := m.KWire * math.Sqrt(float64(c.CapacityBytes))
	sel := m.KMuxSel * (1 + log2(float64(c.Assoc)))
	return path + wire + sel
}

// CAMConfig describes a CAM-style structure such as the issue window's
// wakeup array.
type CAMConfig struct {
	Entries        int // instructions held
	TagBits        int // width of each broadcast tag
	BroadcastPorts int // results broadcast per cycle (issue width)
}

// CAMAccessFO4 returns the wakeup delay of a CAM in FO4: broadcasting the
// destination tags across all entries, comparing at each entry, and ORing
// the match lines into a ready signal. Broadcast wire delay grows linearly
// with the number of entries and the port factor, which is exactly why the
// paper segments the window (Section 5).
func (m Model) CAMAccessFO4(c CAMConfig) float64 {
	if c.Entries < 1 || c.TagBits < 1 {
		panic("cacti: CAM needs entries and tag bits")
	}
	pf := portFactor(c.BroadcastPorts)
	return m.KCamFixed +
		m.KBroadcast*float64(c.Entries)*pf/8 +
		m.KMatch +
		m.KOrTree*(1+log2(float64(c.TagBits)))
}

// segmentedCAMStageFO4 and selectFO4 are the Section 5 circuit
// derivations behind the segmented window's design: no study calls
// them, and the cacti tests pin the shape the paper argues from.

// segmentedCAMStageFO4 returns the per-stage wakeup delay of a segmented
// issue window: the broadcast only spans Entries/stages entries per cycle,
// so the per-cycle critical path shrinks accordingly (plus the inter-stage
// tag latch, accounted as overhead by the clocking model, not here).
func (m Model) segmentedCAMStageFO4(c CAMConfig, stages int) float64 {
	if stages < 1 {
		panic("cacti: need at least one stage")
	}
	per := c
	per.Entries = (c.Entries + stages - 1) / stages
	return m.CAMAccessFO4(per)
}

// selectFO4 returns the delay of selection logic choosing among fanIn
// ready instructions: a tree of arbiters, logarithmic in the fan-in
// (Palacharla's selection model).
func (m Model) selectFO4(fanIn int) float64 {
	if fanIn < 1 {
		panic("cacti: select fan-in must be positive")
	}
	return m.KFixed + m.KOrTree*(1+log2(float64(fanIn)))
}

// Package circuit is a small transient circuit simulator in the spirit of
// SPICE, specialized for the switch-level CMOS timing experiments the paper
// performs: measuring an FO4 inverter delay, the overhead of a pulse latch
// (Figures 2 and 3), and the delay of a CMOS-equivalent Cray ECL gate
// (Appendix A).
//
// The simulator performs nodal analysis with backward-Euler integration on a
// netlist of resistors, capacitors, ideal (piecewise-linear) voltage sources
// and switch-level MOSFETs. MOSFETs are modeled as voltage-controlled
// conductances with explicit gate and diffusion capacitance; this is far
// simpler than a BSIM model but reproduces the paper's methodology, which
// depends on relative delays (everything is reported in FO4) rather than
// absolute sub-picosecond accuracy.
//
// Units: volts, picoseconds, kilo-ohms and femtofarads. Conveniently,
// 1 kΩ × 1 fF = 1 ps, so all time constants come out directly in
// picoseconds.
package circuit

import (
	"fmt"
	"math"
)

// Node identifies a circuit node. The ground node is always Node 0.
type Node int

// Gnd is the ground node, fixed at 0 V.
const Gnd Node = 0

// deviceKind enumerates the primitive devices the simulator understands.
type deviceKind uint8

const (
	kindResistor deviceKind = iota
	kindCapacitor
	kindNMOS
	kindPMOS
	kindVSource
)

type device struct {
	kind deviceKind
	a, b Node // resistor/capacitor terminals; MOS drain/source
	g    Node // MOS gate
	val  float64
	wave Waveform // voltage source waveform
}

// Params holds the technology parameters of the switch-level device model.
type Params struct {
	VDD   float64 // supply voltage, volts
	Vth   float64 // MOS threshold voltage, volts
	VthSm float64 // smoothing range over which the channel turns on, volts

	// RonN is the effective on-resistance of a unit-width NMOS channel in
	// kΩ; a device of width w has resistance RonN/w. PMOS mobility is lower,
	// so its unit resistance is RonP.
	RonN float64
	RonP float64

	// CGate is gate capacitance per unit width (fF); CDiff is source/drain
	// diffusion capacitance per unit width (fF).
	CGate float64
	CDiff float64

	// Goff is the off-state channel conductance (1/kΩ) per unit width,
	// a small leakage term that keeps the nodal matrix well-conditioned.
	Goff float64
}

// Params100nm is the device model calibrated so that a simulated FO4
// inverter delay is 36 ps, matching the paper's 100nm technology
// (360 ps × 0.1 µm). See latch.MeasureFO4 for the measurement.
var Params100nm = Params{
	VDD:   1.2,
	Vth:   0.30,
	VthSm: 0.20,
	RonN:  28.3,
	RonP:  56.6,
	CGate: 0.16,
	CDiff: 0.06,
	Goff:  1e-7,
}

// Circuit is a netlist under construction.
type Circuit struct {
	Params  Params
	devices []device
	pinned  []bool // node has an ideal voltage source attached

	// Scratch buffers reused by step to avoid per-timestep allocation.
	scratchA [][]float64
	scratchB []float64
	scratchX []float64
}

// New returns an empty circuit using the given device parameters. The
// ground node exists from the start.
func New(p Params) *Circuit {
	c := &Circuit{Params: p}
	c.pinned = append(c.pinned, true)
	return c
}

// NumNodes returns the number of nodes, including ground.
func (c *Circuit) NumNodes() int { return len(c.pinned) }

// Node creates and returns a new node. The name documents the netlist
// at the call site; the circuit does not keep it.
func (c *Circuit) Node(name string) Node {
	c.pinned = append(c.pinned, false)
	return Node(len(c.pinned) - 1)
}

// R adds a resistor of r kΩ between a and b.
func (c *Circuit) R(a, b Node, r float64) {
	if r <= 0 {
		panic("circuit: resistance must be positive")
	}
	c.devices = append(c.devices, device{kind: kindResistor, a: a, b: b, val: r})
}

// C adds a capacitor of f fF between a and b.
func (c *Circuit) C(a, b Node, f float64) {
	if f <= 0 {
		panic("circuit: capacitance must be positive")
	}
	c.devices = append(c.devices, device{kind: kindCapacitor, a: a, b: b, val: f})
}

// NMOS adds an n-channel MOSFET of the given width with gate g, conducting
// between d and s when the gate is high. Gate and diffusion capacitances are
// added automatically.
func (c *Circuit) NMOS(g, d, s Node, width float64) {
	c.addMOS(kindNMOS, g, d, s, width)
}

// PMOS adds a p-channel MOSFET of the given width with gate g, conducting
// between d and s when the gate is low.
func (c *Circuit) PMOS(g, d, s Node, width float64) {
	c.addMOS(kindPMOS, g, d, s, width)
}

func (c *Circuit) addMOS(kind deviceKind, g, d, s Node, width float64) {
	if width <= 0 {
		panic("circuit: MOS width must be positive")
	}
	c.devices = append(c.devices, device{kind: kind, g: g, a: d, b: s, val: width})
	// Parasitics: gate capacitance to ground, diffusion capacitance on the
	// drain and source terminals.
	c.C(g, Gnd, c.Params.CGate*width)
	c.C(d, Gnd, c.Params.CDiff*width)
	c.C(s, Gnd, c.Params.CDiff*width)
}

// NMOSRaw and PMOSRaw add a bare channel with no automatic parasitics.
// They are used by cells that model merged diffusion regions explicitly
// (series stacks in a laid-out NAND share one diffusion between adjacent
// transistors, roughly halving internal-node capacitance compared to the
// per-device default).

// NMOSRaw adds an n-channel device without implicit parasitics.
func (c *Circuit) NMOSRaw(g, d, s Node, width float64) {
	if width <= 0 {
		panic("circuit: MOS width must be positive")
	}
	c.devices = append(c.devices, device{kind: kindNMOS, g: g, a: d, b: s, val: width})
}

// PMOSRaw adds a p-channel device without implicit parasitics.
func (c *Circuit) PMOSRaw(g, d, s Node, width float64) {
	if width <= 0 {
		panic("circuit: MOS width must be positive")
	}
	c.devices = append(c.devices, device{kind: kindPMOS, g: g, a: d, b: s, val: width})
}

// V pins node n to an ideal voltage source following waveform w.
func (c *Circuit) V(n Node, w Waveform) {
	if n == Gnd {
		panic("circuit: cannot attach a source to ground")
	}
	c.devices = append(c.devices, device{kind: kindVSource, a: n, wave: w})
	c.pinned[n] = true
}

// VDDNode creates a node pinned to the supply voltage and returns it.
func (c *Circuit) VDDNode() Node {
	n := c.Node("vdd")
	c.V(n, DC(c.Params.VDD))
	return n
}

// mosConductance returns the channel conductance of a MOS device given the
// present node voltages, using a smoothed switch-level model: the channel
// turns on linearly over a VthSm-wide band above (below, for PMOS) the
// threshold.
func (c *Circuit) mosConductance(d device, v []float64) float64 {
	p := c.Params
	var drive float64
	switch d.kind {
	case kindNMOS:
		src := math.Min(v[d.a], v[d.b])
		drive = (v[d.g] - src - p.Vth) / p.VthSm
	case kindPMOS:
		src := math.Max(v[d.a], v[d.b])
		drive = (src - v[d.g] - p.Vth) / p.VthSm
	}
	on := clamp01(drive)
	var gon float64
	if d.kind == kindNMOS {
		gon = d.val / p.RonN
	} else {
		gon = d.val / p.RonP
	}
	return p.Goff*d.val + on*gon
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Result holds the sampled node voltages of a transient simulation.
type Result struct {
	Dt     float64     // timestep in ps
	Stop   float64     // simulation end time in ps
	V      [][]float64 // V[n][k] = voltage of node n at time k*Dt
	Params Params
}

// Simulate runs a transient analysis from t=0 to stop picoseconds with the
// given timestep. All unpinned nodes start at 0 V unless an initial
// condition has been established by the sources at t=0 (sources are applied
// from the first step). The returned Result records every node's waveform.
func (c *Circuit) Simulate(stop, dt float64) *Result {
	return c.simulate(stop, dt, 0)
}

// SimulateSettled first lets the circuit settle for the given number of
// picoseconds with every source held at its t=0 value (establishing the DC
// operating point), then runs the transient like Simulate. Timing
// testbenches use this so internal nodes start from their quiescent levels
// rather than from 0 V.
func (c *Circuit) SimulateSettled(settle, stop, dt float64) *Result {
	return c.simulate(stop, dt, settle)
}

func (c *Circuit) simulate(stop, dt, settle float64) *Result {
	if dt <= 0 || stop <= dt {
		panic("circuit: need 0 < dt < stop")
	}
	n := c.NumNodes()
	steps := int(stop/dt) + 1
	res := &Result{Dt: dt, Stop: stop, Params: c.Params}
	res.V = make([][]float64, n)
	for i := range res.V {
		res.V[i] = make([]float64, steps)
	}

	v := make([]float64, n) // current voltages
	// Initialize pinned nodes to their t=0 source values so the first step
	// does not see an artificial supply ramp.
	for _, d := range c.devices {
		if d.kind == kindVSource {
			v[d.a] = d.wave.At(0)
		}
	}
	if settle > 0 {
		// Pre-roll toward the DC operating point with a coarser step and
		// sources frozen at t=0; the pre-roll waveforms are discarded.
		settleDt := dt * 8
		for k := 0; float64(k)*settleDt < settle; k++ {
			c.step(v, 0, settleDt)
		}
	}
	for i := range res.V {
		res.V[i][0] = v[i]
	}

	for k := 1; k < steps; k++ {
		c.step(v, float64(k)*dt, dt)
		for i := range v {
			res.V[i][k] = v[i]
		}
	}
	return res
}

// step advances the node voltages v by one backward-Euler timestep ending
// at time t. Dense nodal matrices are rebuilt each step because MOS
// conductances depend on the evolving voltages; node 0 (ground) is kept in
// the system with a pinned row for simplicity — the matrices are tiny.
func (c *Circuit) step(v []float64, t, dt float64) {
	n := len(v)
	if c.scratchA == nil || len(c.scratchA) != n {
		c.scratchA = make([][]float64, n)
		for i := range c.scratchA {
			c.scratchA[i] = make([]float64, n)
		}
		c.scratchB = make([]float64, n)
		c.scratchX = make([]float64, n)
	}
	a, rhs, vNew := c.scratchA, c.scratchB, c.scratchX
	for i := range a {
		row := a[i]
		for j := range row {
			row[j] = 0
		}
		rhs[i] = 0
	}
	for _, d := range c.devices {
		switch d.kind {
		case kindResistor:
			stampG(a, d.a, d.b, 1/d.val)
		case kindCapacitor:
			g := d.val / dt
			stampG(a, d.a, d.b, g)
			i := g * (v[d.a] - v[d.b])
			rhs[d.a] += i
			rhs[d.b] -= i
		case kindNMOS, kindPMOS:
			stampG(a, d.a, d.b, c.mosConductance(d, v))
		case kindVSource:
			// handled below by pinning
		}
	}
	pin := func(node Node, val float64) {
		row := a[node]
		for j := range row {
			row[j] = 0
		}
		row[node] = 1
		rhs[node] = val
	}
	pin(Gnd, 0)
	for _, d := range c.devices {
		if d.kind == kindVSource {
			pin(d.a, d.wave.At(t))
		}
	}
	if err := solveInPlace(a, rhs, vNew); err != nil {
		panic(fmt.Sprintf("circuit: singular system at t=%.2fps: %v", t, err))
	}
	copy(v, vNew)
}

// stampG stamps a conductance g between nodes x and y into matrix a.
func stampG(a [][]float64, x, y Node, g float64) {
	a[x][x] += g
	a[y][y] += g
	a[x][y] -= g
	a[y][x] -= g
}

// solveInPlace solves a·x = b by Gaussian elimination with partial
// pivoting, destroying a and b. The solution is written to x.
func solveInPlace(a [][]float64, b, x []float64) error {
	n := len(b)
	for col := 0; col < n; col++ {
		// Partial pivot.
		piv := col
		best := math.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if abs := math.Abs(a[r][col]); abs > best {
				best, piv = abs, r
			}
		}
		if best < 1e-14 {
			return fmt.Errorf("pivot %d too small (%g)", col, best)
		}
		if piv != col {
			a[col], a[piv] = a[piv], a[col]
			b[col], b[piv] = b[piv], b[col]
		}
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			arow, crow := a[r], a[col]
			for j := col; j < n; j++ {
				arow[j] -= f * crow[j]
			}
			b[r] -= f * b[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for j := r + 1; j < n; j++ {
			sum -= a[r][j] * x[j]
		}
		x[r] = sum / a[r][r]
	}
	return nil
}

// Voltage returns the voltage of node n at time t (ps), interpolating
// linearly between samples.
func (r *Result) Voltage(n Node, t float64) float64 {
	w := r.V[n]
	if t <= 0 {
		return w[0]
	}
	k := t / r.Dt
	i := int(k)
	if i >= len(w)-1 {
		return w[len(w)-1]
	}
	frac := k - float64(i)
	return w[i] + frac*(w[i+1]-w[i])
}

// CrossTime returns the first time after 'after' (ps) at which node n's
// voltage crosses level in the given direction (rising if rising is true).
// The boolean result reports whether such a crossing exists.
func (r *Result) CrossTime(n Node, level float64, rising bool, after float64) (float64, bool) {
	w := r.V[n]
	start := int(after/r.Dt) + 1
	if start < 1 {
		start = 1
	}
	for k := start; k < len(w); k++ {
		prev, cur := w[k-1], w[k]
		if rising && prev < level && cur >= level ||
			!rising && prev > level && cur <= level {
			// Linear interpolation within the step.
			frac := (level - prev) / (cur - prev)
			return (float64(k-1) + frac) * r.Dt, true
		}
	}
	return 0, false
}

// FinalVoltage returns node n's voltage at the end of the simulation.
func (r *Result) FinalVoltage(n Node) float64 {
	w := r.V[n]
	return w[len(w)-1]
}

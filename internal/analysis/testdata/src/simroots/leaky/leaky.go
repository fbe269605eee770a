// Package leaky is the reach fixtures' out-of-scope helper: it is not a
// simulation package, so its clock reads are only violations when a sim
// entry point can reach them. StampPipe/StampCore/StampEach are reached
// from the roots pipeline.RunBatch, core.SimulateBatch and
// core.SimulateEach and must be flagged with those chains; Unreached
// hangs off a non-root and must stay silent.
package leaky

import "time"

// StampPipe is reachable from the fixture pipeline.RunBatch root.
func StampPipe() int {
	return time.Now().Nanosecond() // flagged through RunBatch's chain
}

// StampCore is reachable from the fixture core.SimulateBatch root.
func StampCore() int {
	return time.Now().Nanosecond() // flagged through SimulateBatch's chain
}

// StampEach is reachable from the fixture core.SimulateEach root.
func StampEach() int {
	return time.Now().Nanosecond() // flagged through SimulateEach's chain
}

// Unreached is called only by non-root functions; if this line is ever
// flagged, the root set grew past the declared entry points.
func Unreached() int {
	return time.Now().Nanosecond()
}

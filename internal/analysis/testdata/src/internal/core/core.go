// Package core is the analyzer-fixture stand-in for the real
// internal/core (see the pipeline fixture's doc comment).
package core

import "repro/internal/analysis/testdata/src/simroots/leaky"

// SimulateBatch is a deprecated batch wrapper, a declared sim root
// until it is deleted.
func SimulateBatch() int { return leaky.StampCore() }

// SimulateEach is the multi-point serving entry, a declared sim root.
func SimulateEach() int { return leaky.StampEach() }

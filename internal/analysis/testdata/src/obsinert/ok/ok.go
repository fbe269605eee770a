// Package ok only writes telemetry in, through the three
// observation-only Recorder methods the hook contract allows.
package ok

import "repro/internal/obs"

// Record feeds the recorder without ever reading it back.
func Record(r *obs.Recorder) {
	defer r.Study("fixture")()
	r.Add("simulations", 1)
	r.Task(0, 0, 0)
}

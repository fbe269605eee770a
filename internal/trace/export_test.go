package trace

// StreamOf exposes t's stream to this directory's external tests as an
// opaque pointer, so they can watch its lifetime (runtime.SetFinalizer)
// from packages that internal/trace cannot import.
func StreamOf(t *Trace) any { return t.s }

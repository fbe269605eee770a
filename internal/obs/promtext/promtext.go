// Package promtext renders sweepd's GET /metrics: a stdlib-only
// registry of counter, gauge, histogram and info families, each read
// from a caller function at render time and written in Prometheus text
// exposition format 0.0.4, plus Lint, which checks such an exposition.
// It holds no metric state of its own: the values live in
// internal/obs.Recorder, and the caller takes one snapshot per scrape
// that every family function reads, so an exposition agrees with the
// /stats body built from the same snapshot.
//
// Design contract, mirroring internal/obs:
//
//   - Observation-only. Nothing in this package may influence
//     simulation results; simulation packages are forbidden from even
//     importing it (the reprolint obsinert rule), so every value flows
//     in through the serving layer.
//   - Deterministic. Families render sorted by name and labels sorted,
//     so the same snapshot renders the same bytes.
//   - A nil *Registry is valid: it registers nothing and renders an
//     empty exposition.
//
// The package name avoids internal/metrics, which is the paper's
// BIPS/IPC accounting and entirely unrelated.
package promtext

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// ContentType is the exposition content type a scraper negotiates.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// sample is one rendered exposition line: an optional {label="value"}
// suffix on the family name, and the formatted value.
type sample struct {
	suffix string // appended to the family name verbatim ("" or "_sum"...)
	labels string // rendered label set, "" or `{le="0.5"}`
	value  string
}

// family is one metric family: its metadata and a collect function that
// snapshots the current samples at scrape time.
type family struct {
	name    string
	help    string
	typ     string // "counter", "gauge" or "histogram"
	collect func() []sample
}

// Registry holds metric families and renders them sorted by name. The
// zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// validName is the Prometheus metric-name grammar:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register adds one family, panicking on an invalid or duplicate name —
// both are programmer errors caught by the first scrape test.
func (r *Registry) register(name, help, typ string, collect func() []sample) {
	if !validName(name) {
		panic(fmt.Sprintf("promtext: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("promtext: duplicate metric name %q", name))
	}
	f := &family{name: name, help: help, typ: typ, collect: collect}
	r.families = append(r.families, f)
	r.byName[name] = f
}

// formatValue renders an exposition float: integral values print as
// integers (the common case — counters and byte gauges — stays
// grep-friendly), everything else in Go's shortest float form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// WriteTo renders every family, sorted by name, in text exposition
// format 0.0.4 straight into w: a # HELP and # TYPE line per family
// followed by its samples. It stops at the first write error and
// returns the bytes written.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	if r == nil {
		return 0, nil
	}
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	cw := &countingWriter{w: w}
	for _, f := range fams {
		fmt.Fprintf(cw, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		fmt.Fprintf(cw, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.collect() {
			fmt.Fprintf(cw, "%s%s%s %s\n", f.name, s.suffix, s.labels, s.value)
		}
	}
	return cw.n, cw.err
}

// countingWriter counts the bytes written through it and turns every
// write after the first error into a no-op that reports it.
type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}

// NewCounterFunc registers a counter whose value is read from fn at
// render time. The caller takes one snapshot per scrape and renders
// under its own lock, so every fn of one exposition reads the same
// snapshot (sweepd's /metrics renders the value /stats serves).
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, help, "counter", func() []sample {
		return []sample{{value: formatValue(fn())}}
	})
}

// NewGaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, help, "gauge", func() []sample {
		return []sample{{value: formatValue(fn())}}
	})
}

// NewInfo registers the conventional info pseudo-metric: a gauge fixed
// at 1 whose labels carry build metadata (build_info{version="..."} 1).
// Labels render sorted by name.
func (r *Registry) NewInfo(name, help string, labels map[string]string) {
	if r == nil {
		return
	}
	names := make([]string, 0, len(labels))
	for k := range labels { //reprolint:allow mapiter: label names are validated here then sorted before rendering; scrape bytes stay order-stable
		if !validName(k) || strings.Contains(k, ":") {
			panic(fmt.Sprintf("promtext: invalid label name %q", k))
		}
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=\"%s\"", k, escapeLabel(labels[k]))
	}
	b.WriteByte('}')
	rendered := b.String()
	r.register(name, help, "gauge", func() []sample {
		return []sample{{labels: rendered, value: "1"}}
	})
}

// NewCounterVecFunc registers a one-label counter family read from fn
// at render time: fn calls cell once per label value, in the order the
// cells render.
func (r *Registry) NewCounterVecFunc(name, help, label string, fn func(cell func(value string, v float64))) {
	if r == nil {
		return
	}
	if !validName(label) || strings.Contains(label, ":") {
		panic(fmt.Sprintf("promtext: invalid label name %q", label))
	}
	r.register(name, help, "counter", func() []sample {
		var out []sample
		fn(func(value string, v float64) {
			out = append(out, sample{
				labels: fmt.Sprintf("{%s=\"%s\"}", label, escapeLabel(value)),
				value:  formatValue(v),
			})
		})
		return out
	})
}

// NewHistogramFunc registers a histogram family read from fn at render
// time. Bucket bounds and the sum render in seconds, the Prometheus
// base unit, and the buckets cumulatively with the +Inf bucket equal to
// _count.
func (r *Registry) NewHistogramFunc(name, help string, fn func() obs.Histogram) {
	if r == nil {
		return
	}
	r.register(name, help, "histogram", func() []sample {
		h := fn()
		var out []sample
		h.Buckets(func(le time.Duration, cum int64) {
			out = append(out, sample{
				suffix: "_bucket",
				labels: fmt.Sprintf("{le=%q}", formatValue(le.Seconds())),
				value:  formatValue(float64(cum)),
			})
		})
		n := formatValue(float64(h.Count()))
		return append(out,
			sample{suffix: "_bucket", labels: `{le="+Inf"}`, value: n},
			sample{suffix: "_sum", value: formatValue(h.Sum().Seconds())},
			sample{suffix: "_count", value: n})
	})
}

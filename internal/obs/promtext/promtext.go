// Package promtext writes and checks Prometheus text exposition format
// 0.0.4, stdlib only. Its append helpers each write one metric family —
// a counter or gauge with one sample, a one-label counter, or an
// obs.Histogram — into a caller's buffer, and Lint checks a finished
// exposition. It holds no metric state and no family list: sweepd's
// GET /metrics walks its own table of families over the one snapshot
// its scrape takes (the value /stats serves), so an exposition is a
// pure function of that snapshot and agrees with a /stats body built
// from it.
//
// Design contract, mirroring internal/obs:
//
//   - Observation-only. Nothing in this package may influence
//     simulation results; simulation packages are forbidden from even
//     importing it (the reprolint obsinert rule), so every value flows
//     in through the serving layer.
//   - Deterministic. A family renders the same bytes for the same
//     values, and its caller fixes the family order.
//
// The package name avoids internal/metrics, which is the paper's
// BIPS/IPC accounting and entirely unrelated.
package promtext

import (
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// ContentType is the exposition content type a scraper negotiates.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// appendValue appends an exposition float: integral values print as
// integers (the common case — counters and byte gauges — stays
// grep-friendly), everything else in Go's shortest float form. It
// formats in place, so a scrape allocates no string per value.
func appendValue(b []byte, v float64) []byte {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// Labels renders a label set from name, value pairs in the order given
// ({a="1",b="2"}), escaping the values. Names are the caller's
// literals and are not checked.
func Labels(pairs ...string) string {
	b := []byte{'{'}
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendLabel(b, pairs[i], pairs[i+1])
	}
	return string(append(b, '}'))
}

// appendLabel appends one name="value" pair, escaping the value.
func appendLabel(b []byte, name, value string) []byte {
	b = append(b, name...)
	b = append(b, `="`...)
	b = append(b, escapeLabel(value)...)
	return append(b, '"')
}

// appendHeader appends a family's # HELP and # TYPE lines.
func appendHeader(b []byte, name, help, typ string) []byte {
	b = append(b, "# HELP "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, strings.ReplaceAll(help, "\n", " ")...)
	b = append(b, "\n# TYPE "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, typ...)
	return append(b, '\n')
}

// appendSample appends one sample line: the name, its suffix and
// rendered label set (each possibly empty), and the value.
func appendSample(b []byte, name, suffix, labels string, v float64) []byte {
	b = append(b, name...)
	b = append(b, suffix...)
	b = append(b, labels...)
	b = append(b, ' ')
	b = appendValue(b, v)
	return append(b, '\n')
}

// AppendScalar appends a family of one sample: its HELP and TYPE lines
// (typ is "counter" or "gauge"), then the sample with the rendered
// label set labels ("" for none, or one from Labels).
func AppendScalar(b []byte, name, help, typ, labels string, v float64) []byte {
	return appendSample(appendHeader(b, name, help, typ), name, "", labels, v)
}

// Cell is one sample of a one-label counter family: the label's value
// and the count.
type Cell struct {
	Label string
	Value float64
}

// AppendCounterVec appends a counter family with one label: its HELP
// and TYPE lines, then one sample per cell, in the order given.
func AppendCounterVec(b []byte, name, help, label string, cells []Cell) []byte {
	b = appendHeader(b, name, help, "counter")
	for _, c := range cells {
		b = append(b, name...)
		b = append(b, '{')
		b = appendLabel(b, label, c.Label)
		b = append(b, "} "...)
		b = appendValue(b, c.Value)
		b = append(b, '\n')
	}
	return b
}

// AppendHistogram appends a histogram family. Bucket bounds and the sum
// render in seconds, the Prometheus base unit, and the buckets
// cumulatively, with the +Inf bucket equal to _count.
func AppendHistogram(b []byte, name, help string, h obs.Histogram) []byte {
	b = appendHeader(b, name, help, "histogram")
	h.Buckets(func(le time.Duration, cum int64) {
		b = append(b, name...)
		b = append(b, `_bucket{le="`...)
		b = appendValue(b, le.Seconds())
		b = append(b, `"} `...)
		b = appendValue(b, float64(cum))
		b = append(b, '\n')
	})
	n := float64(h.Count())
	b = appendSample(b, name, "_bucket", `{le="+Inf"}`, n)
	b = appendSample(b, name, "_sum", "", h.Sum().Seconds())
	return appendSample(b, name, "_count", "", n)
}

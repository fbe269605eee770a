package promtext

// Lint validates text exposition format 0.0.4 output — the shape checks
// the repo's metrics tests and smoke targets share instead of each
// growing its own ad-hoc parser. It is deliberately stricter than a
// Prometheus scraper: the append helpers in this package always emit
// HELP before TYPE, monotone cumulative buckets and a _count that equals
// the +Inf bucket, and an exposition built from them names each family
// once, so Lint treats any drift from that — a duplicate or invalid
// family name included — as a defect.

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
)

var validTypes = map[string]bool{
	"counter": true, "gauge": true, "histogram": true,
	"summary": true, "untyped": true,
}

// lintFamily accumulates one family's state while its block is being
// scanned.
type lintFamily struct {
	typ     string
	samples int

	// Histogram state: the last le bound and cumulative value seen, and
	// the +Inf / _count values for the final consistency check. A
	// histogram must carry at least one finite bucket — an +Inf-only
	// family observes nothing about the distribution — and exactly one
	// _count and _sum sample; duplicates would let a later line shadow
	// an inconsistent earlier one.
	lastLE     float64
	lastBucket float64
	finite     int
	infSeen    bool
	infValue   float64
	countSeen  bool
	countValue float64
	sumSeen    bool
}

// Lint checks exposition text and returns the first violation found:
// unknown or malformed lines, a sample without a preceding # TYPE,
// HELP/TYPE ordering, duplicate families, unparsable values,
// non-monotone or unordered histogram buckets, a histogram with no
// finite bucket or no +Inf bucket, duplicate _count or _sum samples,
// or a _count that disagrees with the +Inf bucket.
func Lint(exposition []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(exposition))
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	helped := map[string]bool{}
	families := map[string]*lintFamily{}
	var current string // family owning the samples being scanned

	finish := func(name string) error {
		f := families[name]
		if f == nil || f.typ != "histogram" {
			return nil
		}
		if !f.infSeen {
			return fmt.Errorf("promtext: histogram %s has no +Inf bucket", name)
		}
		if f.finite == 0 {
			return fmt.Errorf("promtext: histogram %s has no finite bucket", name)
		}
		if !f.countSeen {
			return fmt.Errorf("promtext: histogram %s has no _count sample", name)
		}
		if f.countValue != f.infValue {
			return fmt.Errorf("promtext: histogram %s _count %v != +Inf bucket %v", name, f.countValue, f.infValue)
		}
		return nil
	}

	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.SplitN(text, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return fmt.Errorf("promtext: line %d: malformed comment %q", line, text)
			}
			name := fields[2]
			if !validName(name) {
				return fmt.Errorf("promtext: line %d: invalid metric name %q", line, name)
			}
			switch fields[1] {
			case "HELP":
				if helped[name] {
					return fmt.Errorf("promtext: line %d: duplicate HELP for %s", line, name)
				}
				helped[name] = true
			case "TYPE":
				if !helped[name] {
					return fmt.Errorf("promtext: line %d: TYPE %s before its HELP", line, name)
				}
				if _, dup := families[name]; dup {
					return fmt.Errorf("promtext: line %d: duplicate TYPE for %s", line, name)
				}
				if len(fields) != 4 || !validTypes[fields[3]] {
					return fmt.Errorf("promtext: line %d: bad TYPE line %q", line, text)
				}
				if err := finish(current); err != nil {
					return err
				}
				families[name] = &lintFamily{typ: fields[3]}
				current = name
			}
			continue
		}

		name, labels, value, err := splitSample(text)
		if err != nil {
			return fmt.Errorf("promtext: line %d: %v", line, err)
		}
		base := name
		suffix := ""
		for _, s := range []string{"_bucket", "_sum", "_count"} {
			if trimmed, ok := strings.CutSuffix(name, s); ok && families[trimmed] != nil && families[trimmed].typ == "histogram" {
				base, suffix = trimmed, s
				break
			}
		}
		f := families[base]
		if f == nil {
			return fmt.Errorf("promtext: line %d: sample %s has no preceding # TYPE", line, name)
		}
		if base != current {
			return fmt.Errorf("promtext: line %d: sample %s outside its family block", line, name)
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return fmt.Errorf("promtext: line %d: bad value %q for %s", line, value, name)
		}
		f.samples++

		if f.typ == "histogram" {
			switch suffix {
			case "_bucket":
				le, ok := labelValue(labels, "le")
				if !ok {
					return fmt.Errorf("promtext: line %d: bucket without le label: %q", line, text)
				}
				var bound float64
				if le == "+Inf" {
					bound = math.Inf(+1)
				} else if bound, err = strconv.ParseFloat(le, 64); err != nil {
					return fmt.Errorf("promtext: line %d: bad le %q", line, le)
				}
				if f.infSeen {
					return fmt.Errorf("promtext: line %d: bucket after +Inf", line)
				}
				if f.samples > 1 && f.lastLE >= bound {
					return fmt.Errorf("promtext: line %d: bucket bounds not increasing (%v after %v)", line, bound, f.lastLE)
				}
				if v < f.lastBucket {
					return fmt.Errorf("promtext: line %d: cumulative bucket counts decrease (%v after %v)", line, v, f.lastBucket)
				}
				f.lastLE, f.lastBucket = bound, v
				if math.IsInf(bound, +1) {
					f.infSeen, f.infValue = true, v
				} else {
					f.finite++
				}
			case "_count":
				if f.countSeen {
					return fmt.Errorf("promtext: line %d: duplicate _count for histogram %s", line, base)
				}
				f.countSeen, f.countValue = true, v
			case "_sum":
				if f.sumSeen {
					return fmt.Errorf("promtext: line %d: duplicate _sum for histogram %s", line, base)
				}
				f.sumSeen = true
			default:
				return fmt.Errorf("promtext: line %d: raw sample %s inside histogram %s", line, name, base)
			}
			continue
		}
		if suffix != "" {
			return fmt.Errorf("promtext: line %d: %s suffix on non-histogram %s", line, suffix, base)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return finish(current)
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

// splitSample splits "name{labels} value" (labels optional) into its
// parts.
func splitSample(text string) (name, labels, value string, err error) {
	rest := text
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		j := strings.LastIndexByte(rest, '}')
		if j < i {
			return "", "", "", fmt.Errorf("unbalanced braces in %q", text)
		}
		name, labels, rest = rest[:i], rest[i+1:j], strings.TrimSpace(rest[j+1:])
	} else {
		i := strings.IndexByte(rest, ' ')
		if i < 0 {
			return "", "", "", fmt.Errorf("sample without value: %q", text)
		}
		name, rest = rest[:i], strings.TrimSpace(rest[i+1:])
	}
	if !validName(name) {
		return "", "", "", fmt.Errorf("invalid sample name %q", name)
	}
	if rest == "" {
		return "", "", "", fmt.Errorf("sample without value: %q", text)
	}
	// A timestamp after the value is legal exposition; take field one.
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		rest = rest[:i]
	}
	return name, labels, rest, nil
}

// labelValue extracts one label's unescaped value from a rendered label
// body (`le="0.5",job="x"`).
func labelValue(labels, key string) (string, bool) {
	for len(labels) > 0 {
		eq := strings.IndexByte(labels, '=')
		if eq < 0 || len(labels) < eq+2 || labels[eq+1] != '"' {
			return "", false
		}
		name := labels[:eq]
		rest := labels[eq+2:]
		var b strings.Builder
		i := 0
		for i < len(rest) {
			switch {
			case rest[i] == '\\' && i+1 < len(rest):
				switch rest[i+1] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(rest[i+1])
				}
				i += 2
			case rest[i] == '"':
				i++
				goto closed
			default:
				b.WriteByte(rest[i])
				i++
			}
		}
		return "", false
	closed:
		if name == key {
			return b.String(), true
		}
		labels = strings.TrimPrefix(rest[i:], ",")
	}
	return "", false
}

package promtext

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestExpositionShape(t *testing.T) {
	r := NewRegistry()
	r.NewCounterFunc("sweep_requests_total", "Total /sweep requests.", func() float64 { return 3 })
	r.NewGaugeFunc("sweep_inflight_points", "Points now simulating.", func() float64 { return 2 })
	r.NewCounterVecFunc("sweep_rejects_total", "Rejected requests by reason.", "reason", func(cell func(string, float64)) {
		cell("bad_request", 1)
		cell("queue_full", 4)
	})
	h := obs.NewHistogram([]time.Duration{100 * time.Millisecond, time.Second})
	h.Observe(50 * time.Millisecond)
	h.Observe(500 * time.Millisecond)
	h.Observe(5 * time.Second)
	r.NewHistogramFunc("sweep_request_seconds", "Request latency.", func() obs.Histogram { return h })
	r.NewInfo("build_info", "Build metadata.", map[string]string{
		"version": "pr7", "code_version": "cv1",
	})
	r.NewGaugeFunc("store_entries", "Store entries.", func() float64 { return 7 })

	var b strings.Builder
	n, err := r.WriteTo(&b)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got := b.String()
	if n != int64(len(got)) {
		t.Errorf("WriteTo returned %d bytes, wrote %d", n, len(got))
	}

	want := strings.Join([]string{
		`# HELP build_info Build metadata.`,
		`# TYPE build_info gauge`,
		`build_info{code_version="cv1",version="pr7"} 1`,
		`# HELP store_entries Store entries.`,
		`# TYPE store_entries gauge`,
		`store_entries 7`,
		`# HELP sweep_inflight_points Points now simulating.`,
		`# TYPE sweep_inflight_points gauge`,
		`sweep_inflight_points 2`,
		`# HELP sweep_rejects_total Rejected requests by reason.`,
		`# TYPE sweep_rejects_total counter`,
		`sweep_rejects_total{reason="bad_request"} 1`,
		`sweep_rejects_total{reason="queue_full"} 4`,
		`# HELP sweep_request_seconds Request latency.`,
		`# TYPE sweep_request_seconds histogram`,
		`sweep_request_seconds_bucket{le="0.1"} 1`,
		`sweep_request_seconds_bucket{le="1"} 2`,
		`sweep_request_seconds_bucket{le="+Inf"} 3`,
		`sweep_request_seconds_sum 5.55`,
		`sweep_request_seconds_count 3`,
		`# HELP sweep_requests_total Total /sweep requests.`,
		`# TYPE sweep_requests_total counter`,
		`sweep_requests_total 3`,
	}, "\n") + "\n"
	if got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if err := Lint([]byte(got)); err != nil {
		t.Errorf("Lint rejected own exposition: %v", err)
	}
}

// TestLatencyBucketsRenderAsBefore pins the le labels of the latency
// ladder: they must render as the decimal seconds scrapers and the
// golden exposition have always seen.
func TestLatencyBucketsRenderAsBefore(t *testing.T) {
	r := NewRegistry()
	r.NewHistogramFunc("h", "h", func() obs.Histogram { return obs.NewHistogram(obs.LatencyBuckets) })
	var b strings.Builder
	r.WriteTo(&b)
	var les []string
	for _, line := range strings.Split(b.String(), "\n") {
		if i := strings.Index(line, `le="`); i >= 0 {
			les = append(les, line[i+4:strings.LastIndexByte(line, '"')])
		}
	}
	want := "0.0005 0.001 0.0025 0.005 0.01 0.025 0.05 0.1 0.25 0.5 1 2.5 5 10 30 +Inf"
	if got := strings.Join(les, " "); got != want {
		t.Errorf("le bounds = %s, want %s", got, want)
	}
	if err := Lint([]byte(b.String())); err != nil {
		t.Errorf("Lint rejected an empty histogram: %v", err)
	}
}

// failWriter accepts limit bytes, then fails every write.
type failWriter struct{ limit int }

func (w *failWriter) Write(p []byte) (int, error) {
	if len(p) > w.limit {
		n := w.limit
		w.limit = 0
		return n, errors.New("full")
	}
	w.limit -= len(p)
	return len(p), nil
}

func TestWriteToStopsAtFirstError(t *testing.T) {
	r := NewRegistry()
	r.NewCounterFunc("a", "a", func() float64 { return 1 })
	r.NewCounterFunc("b", "b", func() float64 { return 2 })
	n, err := r.WriteTo(&failWriter{limit: 10})
	if err == nil || n != 10 {
		t.Errorf("WriteTo = (%d, %v), want (10, full)", n, err)
	}
}

// TestNilRegistryAndInstruments: a nil registry registers no family,
// never calls a family function, and renders nothing.
func TestNilRegistryAndInstruments(t *testing.T) {
	var r *Registry
	r.NewCounterFunc("f", "f", func() float64 { t.Error("fn called on nil registry"); return 0 })
	r.NewGaugeFunc("f2", "f2", func() float64 { t.Error("fn called on nil registry"); return 0 })
	r.NewCounterVecFunc("v", "v", "reason", func(func(string, float64)) { t.Error("fn called on nil registry") })
	r.NewHistogramFunc("h", "h", func() obs.Histogram { t.Error("fn called on nil registry"); return obs.Histogram{} })
	r.NewInfo("i", "i", map[string]string{"a": "b"})
	var b strings.Builder
	if n, err := r.WriteTo(&b); n != 0 || err != nil || b.Len() != 0 {
		t.Errorf("nil WriteTo = (%d, %v, %q)", n, err, b.String())
	}
}

func TestRegisterPanics(t *testing.T) {
	one := func() float64 { return 1 }
	noCells := func(func(string, float64)) {}
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"invalid name", func(r *Registry) { r.NewCounterFunc("9bad", "x", one) }},
		{"empty name", func(r *Registry) { r.NewCounterFunc("", "x", one) }},
		{"name with dash", func(r *Registry) { r.NewCounterFunc("a-b", "x", one) }},
		{"duplicate", func(r *Registry) { r.NewCounterFunc("dup", "x", one); r.NewGaugeFunc("dup", "x", one) }},
		{"bad label", func(r *Registry) { r.NewCounterVecFunc("v", "x", "le gal", noCells) }},
		{"colon label", func(r *Registry) { r.NewCounterVecFunc("v", "x", "a:b", noCells) }},
		{"bad info label", func(r *Registry) { r.NewInfo("i", "x", map[string]string{"1x": "y"}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.fn(NewRegistry())
		})
	}
}

func TestFormatValue(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{3, "3"},
		{-2, "-2"},
		{0.25, "0.25"},
		{1e15, "1e+15"},
		{math.Inf(+1), "+Inf"},
	}
	for _, tc := range cases {
		got := formatValue(tc.in)
		if tc.in == math.Inf(+1) {
			// strconv renders +Inf; exposition buckets hardcode the
			// literal, so only sanity-check it is non-integral here.
			continue
		}
		if got != tc.want {
			t.Errorf("formatValue(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.NewCounterVecFunc("c", "c", "reason", func(cell func(string, float64)) { cell("a\"b\\c\nd", 1) })
	var b strings.Builder
	r.WriteTo(&b)
	if !strings.Contains(b.String(), `c{reason="a\"b\\c\nd"} 1`) {
		t.Errorf("escaping wrong:\n%s", b.String())
	}
	if err := Lint([]byte(b.String())); err != nil {
		t.Errorf("Lint rejected escaped labels: %v", err)
	}
}

func TestLintRejects(t *testing.T) {
	cases := []struct {
		name string
		in   string
		frag string // substring the error must contain
	}{
		{"sample without TYPE", "orphan 1\n", "no preceding # TYPE"},
		{"TYPE before HELP", "# TYPE c counter\nc 1\n", "before its HELP"},
		{"bad type", "# HELP c x\n# TYPE c widget\n", "bad TYPE line"},
		{"duplicate family", "# HELP c x\n# TYPE c counter\nc 1\n# TYPE c counter\n", "duplicate TYPE"},
		{"duplicate help", "# HELP c x\n# HELP c y\n", "duplicate HELP"},
		{"bad value", "# HELP c x\n# TYPE c counter\nc lots\n", "bad value"},
		{"bad name", "# HELP c x\n# TYPE c counter\n9c 1\n", "invalid sample name"},
		{"malformed comment", "# BOGUS c x\n", "malformed comment"},
		{
			"non-monotone buckets",
			"# HELP h x\n# TYPE h histogram\n" +
				`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="2"} 3` + "\n" +
				`h_bucket{le="+Inf"} 5` + "\nh_sum 1\nh_count 5\n",
			"decrease",
		},
		{
			"unordered bounds",
			"# HELP h x\n# TYPE h histogram\n" +
				`h_bucket{le="2"} 1` + "\n" + `h_bucket{le="1"} 2` + "\n" +
				`h_bucket{le="+Inf"} 2` + "\nh_sum 1\nh_count 2\n",
			"not increasing",
		},
		{
			"missing +Inf",
			"# HELP h x\n# TYPE h histogram\n" +
				`h_bucket{le="1"} 1` + "\nh_sum 1\nh_count 1\n",
			"no +Inf bucket",
		},
		{
			"count disagrees",
			"# HELP h x\n# TYPE h histogram\n" +
				`h_bucket{le="1"} 3` + "\n" + `h_bucket{le="+Inf"} 3` + "\nh_sum 1\nh_count 2\n",
			"_count 2 != +Inf bucket 3",
		},
		{
			"only +Inf bucket",
			"# HELP h x\n# TYPE h histogram\n" +
				`h_bucket{le="+Inf"} 3` + "\nh_sum 1\nh_count 3\n",
			"no finite bucket",
		},
		{
			"duplicate _count",
			"# HELP h x\n# TYPE h histogram\n" +
				`h_bucket{le="1"} 2` + "\n" + `h_bucket{le="+Inf"} 3` + "\n" +
				"h_sum 1\nh_count 2\nh_count 3\n",
			"duplicate _count",
		},
		{
			"duplicate _sum",
			"# HELP h x\n# TYPE h histogram\n" +
				`h_bucket{le="1"} 2` + "\n" + `h_bucket{le="+Inf"} 3` + "\n" +
				"h_sum 1\nh_sum 2\nh_count 3\n",
			"duplicate _sum",
		},
		{
			"bucket without le",
			"# HELP h x\n# TYPE h histogram\n" +
				`h_bucket{job="x"} 1` + "\n",
			"without le label",
		},
		{
			"interleaved families",
			"# HELP a x\n# TYPE a counter\n# HELP b x\n# TYPE b counter\na 1\n",
			"outside its family block",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Lint([]byte(tc.in))
			if err == nil {
				t.Fatalf("Lint accepted:\n%s", tc.in)
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Errorf("error %q does not contain %q", err, tc.frag)
			}
		})
	}
}

func TestLintAcceptsTimestamps(t *testing.T) {
	in := "# HELP c x\n# TYPE c counter\nc 1 1712345678000\n"
	if err := Lint([]byte(in)); err != nil {
		t.Errorf("Lint rejected timestamped sample: %v", err)
	}
}

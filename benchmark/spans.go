package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one traced interval. Spans of one request share RequestID;
// Parent is the ID of the span that caused this one, -1 for a root.
// Times are microseconds since the run's epoch.
type span struct {
	ID        int     `json:"id"`
	Parent    int     `json:"parent"`
	Name      string  `json:"name"`
	RequestID string  `json:"request_id,omitempty"`
	StartUS   float64 `json:"start_us"`
	EndUS     float64 `json:"end_us"`
}

func (s span) dur() float64 { return s.EndUS - s.StartUS }

// spanLog keeps spans in memory until the run writes them out. It is
// owned by one goroutine: the load generator's clients report plain
// timestamps and the spans are built from them after the phase.
type spanLog struct {
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) at(t time.Time) float64 { return us(t.Sub(l.epoch)) }

// add records a span over [start, end] and returns its ID.
func (l *spanLog) add(name string, parent int, reqID string, start, end time.Time) int {
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, RequestID: reqID,
		StartUS: l.at(start), EndUS: l.at(end)})
	return id
}

// timed runs fn inside a span and returns fn's duration.
func (l *spanLog) timed(name string, parent int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	l.add(name, parent, "", start, end)
	return end.Sub(start)
}

func (l *spanLog) write(path string) error {
	b, err := json.MarshalIndent(l.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time in microseconds: its duration
// minus the part of its interval that its children cover. Overlapping
// children count once, and a child reaching outside its parent only
// counts inside it.
func selfTimes(spans []span) map[int]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		type iv struct{ a, b float64 }
		var ivs []iv
		for _, c := range children[s.ID] {
			a, b := max(c.StartUS, s.StartUS), min(c.EndUS, s.EndUS)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		covered, end := 0.0, s.StartUS
		for _, v := range ivs {
			if v.a > end {
				end = v.a
			}
			if v.b > end {
				covered += v.b - end
				end = v.b
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// selfMean is the mean self time per op, in ms, of the spans named name.
func selfMean(spans []span, name string, ops float64) float64 {
	self := selfTimes(spans)
	total := 0.0
	for _, s := range spans {
		if s.Name == name {
			total += self[s.ID]
		}
	}
	return ratio(total/1000, ops)
}

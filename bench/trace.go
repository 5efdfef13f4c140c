package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval of a traced run. Spans are recorded by the
// harness around its calls into each layer (in-program spans are a later
// change); Parent is the id of the span that caused it (-1 for a
// campaign's root) and all spans of one campaign share Campaign.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Campaign int    `json:"campaign"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"` // offsets from the tracer's epoch
	EndNS    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run ends. Traced campaigns run
// one at a time on one goroutine, so it is not synchronized. A nil tracer
// records nothing, which is how untraced campaigns share the traced code
// path.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id (-1 on a nil tracer).
func (t *tracer) add(name string, parent, campaign int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Campaign: campaign, Name: name,
		StartNS: int64(start.Sub(t.epoch)), EndNS: int64(end.Sub(t.epoch)),
	})
	return id
}

// phases records contiguous child spans of parent — names[i] runs from
// marks[i] to marks[i+1] — and returns their ids. Contiguity is what makes
// the phase spans sum to the campaign span.
func (t *tracer) phases(parent, campaign int, names []string, marks []time.Time) []int {
	ids := make([]int, len(names))
	for i, name := range names {
		ids[i] = t.add(name, parent, campaign, marks[i], marks[i+1])
	}
	return ids
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover (overlapping children are
// counted once).
func selfTimes(spans []span) []time.Duration {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNS < kids[b].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - time.Duration(covered)
	}
	return self
}

// named returns the durations of every span called name, in record order.
func (t *tracer) named(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Host     host   `json:"host"`
	Spans    []span `json:"spans"`
}

func (t *tracer) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(traceFile{Workload: workload, Seed: seed, Host: thisHost(), Spans: t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), raw, 0o644)
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed interval around a call into a layer. Spans of one
// op share the op id; parent is 0 for an op's root span.
type span struct {
	id, parent, op uint32
	name           string
	start, end     int64 // ns since the tracer's epoch; end is 0 while open
}

// tracer keeps spans in memory for the length of a run. All its methods
// accept a nil receiver and then do nothing, so untraced code paths
// pass nil and pay one branch.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span; a parent of 0 starts a new op.
func (t *tracer) begin(name string, parent uint32) uint32 {
	if t == nil {
		return 0
	}
	id := uint32(len(t.spans) + 1)
	op := id
	if parent != 0 {
		op = t.spans[parent-1].op
	}
	t.spans = append(t.spans, span{id: id, parent: parent, op: op, name: name,
		start: int64(time.Since(t.epoch))})
	return id
}

// end closes the span.
func (t *tracer) end(id uint32) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].end = int64(time.Since(t.epoch))
}

// dur returns a closed span's duration.
func (t *tracer) dur(id uint32) time.Duration {
	s := t.spans[id-1]
	return time.Duration(s.end - s.start)
}

// selfTimes returns each span's duration minus the part of its interval
// that its child spans cover, indexed like spans.
func selfTimes(spans []span) []int64 {
	children := make(map[uint32][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.id]
		sort.Slice(kids, func(a, b int) bool { return kids[a].start < kids[b].start })
		covered, reach := int64(0), s.start
		for _, k := range kids {
			lo, hi := max(k.start, reach), min(k.end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// spanSummary is the spans of one name, totalled.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// summarize totals the spans by name, in order of first appearance.
func summarize(spans []span) []spanSummary {
	self := selfTimes(spans)
	at := map[string]int{}
	var out []spanSummary
	for i, s := range spans {
		k, ok := at[s.name]
		if !ok {
			k = len(out)
			at[s.name] = k
			out = append(out, spanSummary{Name: s.name})
		}
		out[k].Count++
		out[k].TotalMS += float64(s.end-s.start) / 1e6
		out[k].SelfMS += float64(self[i]) / 1e6
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace-event JSON
// (viewable in Perfetto or chrome://tracing).
func writeChromeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d}}",
			s.name, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.id, s.parent, s.op)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

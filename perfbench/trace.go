package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// maxSpans bounds the spans a traced run keeps in memory. Spans past the
// bound still count towards their name's call and op totals but are not
// stored, so their self time is unknown; dropped reports how many.
const maxSpans = 1 << 20

// span is one timed call the benchmark made into a module's public
// function. Times are nanoseconds since the tracer started. Ops is the
// number of benchmark ops the call served (a window of samples, say), so
// per-op costs are total time over total ops.
type span struct {
	name   string
	parent int32 // index into tracer.spans, -1 for a root
	op     int64 // id of the first op the span belongs to
	ops    int32
	start  int64
	end    int64
}

// tracer records spans in memory and writes them out once the run ends.
// A nil *tracer is the untraced run: every method is a no-op, so the
// measured passes carry no tracing code beyond a nil check.
type tracer struct {
	t0      time.Time
	spans   []span
	dropped int64
	calls   map[string]int64
	ops     map[string]int64
	total   map[string]int64
}

func newTracer() *tracer {
	return &tracer{
		t0:    time.Now(),
		spans: make([]span, 0, 1<<14),
		calls: map[string]int64{},
		ops:   map[string]int64{},
		total: map[string]int64{},
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its handle for end. parent is the
// handle of the enclosing span (-1 for none).
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	return t.add(span{name: name, parent: parent, op: op, start: t.now(), end: -1})
}

// end closes the span opened by begin, crediting it with ops ops.
func (t *tracer) end(h int32, name string, ops int) {
	if t == nil {
		return
	}
	now := t.now()
	if h >= 0 {
		s := &t.spans[h]
		s.end, s.ops = now, int32(ops)
		t.account(s.name, ops, now-s.start)
		return
	}
	// Dropped span: the start is lost, so only the call is counted.
	t.calls[name]++
	t.ops[name] += int64(ops)
}

// record adds a span whose interval was measured elsewhere (a sweep
// carrier, whose start is inferred from worker hand-offs).
func (t *tracer) record(name string, parent int32, op int64, ops int, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{name: name, parent: parent, op: op, ops: int32(ops),
		start: int64(start.Sub(t.t0)), end: int64(end.Sub(t.t0))}
	t.account(name, ops, s.end-s.start)
	t.add(s)
}

func (t *tracer) add(s span) int32 {
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

func (t *tracer) account(name string, ops int, d int64) {
	t.calls[name]++
	t.ops[name] += int64(ops)
	t.total[name] += d
}

// perOpNS is the mean time per op spent in spans of name, or -1 when no
// span of that name credited an op.
func (t *tracer) perOpNS(name string) float64 {
	if t == nil || t.ops[name] == 0 {
		return -1
	}
	return float64(t.total[name]) / float64(t.ops[name])
}

// perCallNS is the mean duration of one span of name, or -1 when none ran.
func (t *tracer) perCallNS(name string) float64 {
	if t == nil || t.calls[name] == 0 {
		return -1
	}
	return float64(t.total[name]) / float64(t.calls[name])
}

// selfTimes returns, per span name, the summed self time of the stored
// spans: each span's duration minus the part of its interval that its
// children cover (overlapping children are merged, not double-counted).
func (t *tracer) selfTimes() map[string]int64 {
	kids := make(map[int32][][2]int64)
	for _, s := range t.spans {
		if s.parent >= 0 && s.end >= 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	self := make(map[string]int64)
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		self[s.name] += (s.end - s.start) - covered(kids[int32(i)], s.start, s.end)
	}
	return self
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// writeFile writes every stored span as one JSON line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"name":%q,"parent":%d,"op":%d,"ops":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			i, s.name, s.parent, s.op, s.ops, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// clockCostNS estimates what one span costs the traced pass: two clock
// reads plus the append, timed over a batch in a scratch tracer.
func clockCostNS() float64 {
	const n = 1 << 16
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		h := t.begin("x", -1, int64(i))
		t.end(h, "x", 1)
	}
	return float64(time.Since(start)) / n
}

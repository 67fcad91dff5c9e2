package main

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/cellular"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
)

// window is the closed-loop pipelining window: the client sends this many
// samples (with the control records due before each) and then reads their
// predictions back.
const window = 16

// result is what one pass measured and checked.
type result struct {
	ops  int64
	lat  []int64 // ns per op that passed its checks, in op order
	wall time.Duration
	// marks cut the pass into segments of consecutive ops (see fastest).
	// pooled takes the latency percentiles over the fastest segments'
	// latencies together, rather than averaging each segment's.
	marks  []mark
	pooled bool
	f1     float64
	// bad marks each op that failed a check, so an op counts once however
	// many of its checks fail. unplaced is the most failed ops any one
	// check found without knowing which ops they were, such as a daemon
	// counter that disagrees with the client; those are taken to be among
	// the marked ops where they can be.
	bad      map[int64]bool
	unplaced int64
	cpuNS    int64   // CPU of the process hosting the layer under test
	rssMB    float64 // VmHWM of that process
	notes    []string
	layers   map[string]float64
	tr       *tracer
}

func newResult(ops int64, tr *tracer) *result {
	return &result{ops: ops, lat: make([]int64, 0, ops), bad: map[int64]bool{}, layers: map[string]float64{}, tr: tr}
}

// mark ends a segment of the pass: the ops since the previous mark, which
// did the work of unit. ops, at and cpu count from the start of the pass.
type mark struct {
	unit int
	ops  int64
	at   time.Duration
	cpu  int64
	lats int // len(lat)
}

func (r *result) mark(unit int, ops int64, at time.Duration, cpu int64) {
	r.marks = append(r.marks, mark{unit: unit, ops: ops, at: at, cpu: cpu, lats: len(r.lat)})
}

// segment is the stretch of a pass between two marks.
type segment struct {
	ops      int64
	wall     time.Duration
	cpu      int64
	from, to int // its ops' latencies, lat[from:to]
}

// clean reports whether every op of the segment passed its checks.
func (sg segment) clean() bool { return int64(sg.to-sg.from) == sg.ops }

// fastest returns, for each unit of work the pass repeated, the segment
// that did it in the least wall time, preferring segments whose ops all
// passed. A run streams each drive, or goes round the migrate pool,
// several times; the host this was tuned on flips between two speeds
// within a run, and the figures of each unit's fastest repeat spread
// about half as much from run to run as whole-pass ones. Every unit is
// still measured.
func (r *result) fastest() []segment {
	best := map[int]segment{}
	var prev mark
	for _, m := range r.marks {
		sg := segment{ops: m.ops - prev.ops, wall: m.at - prev.at, cpu: m.cpu - prev.cpu, from: prev.lats, to: m.lats}
		b, ok := best[m.unit]
		if !ok || sg.clean() && !b.clean() || sg.clean() == b.clean() && sg.wall < b.wall {
			best[m.unit] = sg
		}
		prev = m
	}
	units := make([]int, 0, len(best))
	for u := range best {
		units = append(units, u)
	}
	sort.Ints(units)
	segs := make([]segment, 0, len(units))
	for _, u := range units {
		segs = append(segs, best[u])
	}
	return segs
}

// failOps marks ops [from, from+n) failed, keeping the first few reasons.
func (r *result) failOps(from, n int64, format string, args ...any) {
	for op := from; op < from+n && op < r.ops; op++ {
		r.bad[op] = true
	}
	r.note(format, args...)
}

func (r *result) failAll(format string, args ...any) { r.failOps(0, r.ops, format, args...) }

// failCount records a check that found n failed ops it cannot name.
func (r *result) failCount(n int64, format string, args ...any) {
	r.unplaced = max(r.unplaced, n)
	r.note(format, args...)
}

func (r *result) note(format string, args ...any) {
	if len(r.notes) < 8 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// failures is the number of ops that failed at least one check.
func (r *result) failures() int64 { return min(r.ops, max(int64(len(r.bad)), r.unplaced)) }

// servePlan is the fixed work of a serve run: sessions stream the drives
// in turn, session s streaming drive s mod len(drives).
type servePlan struct {
	logs     []*trace.Log
	drives   [][]step
	sessions int
}

func newServePlan(logs []*trace.Log, sessions int) *servePlan {
	p := &servePlan{logs: logs, sessions: sessions}
	for _, l := range logs {
		p.drives = append(p.drives, steps(l, 0, len(l.Samples)))
	}
	return p
}

func (p *servePlan) ops() int64 {
	var n int64
	for s := 0; s < p.sessions; s++ {
		n += int64(len(p.drives[s%len(p.drives)]))
	}
	return n
}

// runServe streams the plan to the daemon one session after another over
// a single connection at a time, checks every response, and scores the
// served predictions against the drives' handovers. It calls pin before
// each round of the drives.
func runServe(plan *servePlan, d *daemon, framing wire.Framing, tr *tracer, pin func(round int)) *result {
	res := newResult(plan.ops(), tr)
	types := make([]cellular.HOType, res.ops)
	before, err := d.stats()
	if err != nil {
		res.failAll("stats before pass: %v", err)
		return res
	}
	cpu0, _ := cpuNS(d.pid())
	start := time.Now()
	var op int64
	for s := 0; s < plan.sessions; s++ {
		if s%len(plan.drives) == 0 {
			pin(s / len(plan.drives))
		}
		st := plan.drives[s%len(plan.drives)]
		n := int64(len(st))
		read, err := serveSession(d.addr, framing, st, op, types[op:op+n], res, tr)
		switch {
		case err != nil && read < n:
			res.failOps(op+read, n-read, "session %d: %d of %d samples unanswered: %v", s, n-read, n, err)
		case err != nil:
			// Every sample was answered, but the stream broke its contract.
			res.failOps(op+n-1, 1, "session %d: %v", s, err)
		}
		op += n
		cpu, _ := cpuNS(d.pid())
		res.mark(s%len(plan.drives), op, time.Since(start), cpu-cpu0)
	}
	res.wall = time.Since(start)
	cpu1, err := cpuNS(d.pid())
	if err == nil {
		res.cpuNS = cpu1 - cpu0
	}
	res.rssMB, _ = peakRSSMB(d.pid())
	after, err := d.stats()
	if err != nil {
		res.failAll("stats after pass: %v", err)
		return res
	}
	checkCounts(res, "samples", after.Samples-before.Samples, res.ops, 1)
	checkCounts(res, "predictions", after.Predictions-before.Predictions, res.ops, 1)

	var score eventScore
	op = 0
	for s := 0; s < plan.sessions; s++ {
		log := plan.logs[s%len(plan.logs)]
		st := plan.drives[s%len(plan.drives)]
		ticks := make([]core.TickPrediction, len(st))
		for i := range st {
			ticks[i] = core.TickPrediction{Time: st[i].sample.Time, Type: types[op+int64(i)]}
		}
		o := core.EvaluateEvents(ticks, log.Handovers, time.Second)
		score.add(o.TP, o.FP, o.FN)
		op += int64(len(st))
	}
	res.f1 = score.f1()

	if tr != nil {
		res.layers["server.dial_us"] = tr.perCallNS("server.dial") / 1e3
		res.layers["server.send_ns"] = tr.perOpNS("server.send")
		res.layers["server.wait_ns"] = tr.perOpNS("server.wait")
		res.layers["server.inner_p50_us"] = after.Latency.P50US
		res.layers["server.samples"] = float64(after.Samples - before.Samples)
		res.layers["server.predictions"] = float64(after.Predictions - before.Predictions)
		sh := shadowServe(plan, framing, types, res)
		sh.layers(res.layers)
		res.layers["server.other_ns"] = (float64(res.cpuNS) - sh.daemonNS()) / float64(res.ops)
	}
	return res
}

// checkCounts folds a daemon counter that disagrees with the client's
// count into the failures, as the ops the difference spans: perOp is the
// counter's units per op.
func checkCounts(res *result, what string, got, want, perOp int64) {
	if got != want {
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		res.failCount((diff+perOp-1)/perOp, "daemon counted %d %s, client sent %d", got, what, want)
	}
}

// serveSession streams one drive over one connection and returns how many
// responses it read, marking each that was not exactly right as a failed
// op. types receives the served prediction per sample.
func serveSession(addr string, framing wire.Framing, st []step, op0 int64, types []cellular.HOType, res *result, tr *tracer) (int64, error) {
	root := tr.begin("serve.session", -1, op0)
	defer tr.end(root, "serve.session", len(st))
	h := tr.begin("server.dial", root, op0)
	c, err := server.DialWith(addr, server.Hello{Carrier: carrierName, Arch: driveArch},
		server.ClientOptions{Framing: framing, NoAutoFlush: true})
	tr.end(h, "server.dial", 0)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	var read int64
	var sent [window]time.Time
	for i := 0; i < len(st); i += window {
		n := min(window, len(st)-i)
		op := op0 + int64(i)
		h = tr.begin("server.send", root, op)
		for k := 0; k < n; k++ {
			s := &st[i+k]
			for _, mr := range s.reports {
				if err := c.SendReport(mr); err != nil {
					return read, err
				}
			}
			for _, ho := range s.hos {
				if err := c.SendHandover(ho); err != nil {
					return read, err
				}
			}
			sent[k] = time.Now()
			if err := c.SendSampleAsync(s.sample); err != nil {
				return read, err
			}
		}
		tr.end(h, "server.send", n)
		h = tr.begin("server.wait", root, op)
		for k := 0; k < n; k++ {
			r, err := c.ReadResponse()
			if err != nil {
				return read, err
			}
			d := time.Since(sent[k])
			read++
			want := &st[i+k].sample
			if r.Seq != int64(i+k+1) || r.Time != want.Time {
				res.failOps(op+int64(k), 1, "response seq %d time %v, want seq %d time %v", r.Seq, r.Time, i+k+1, want.Time)
				continue
			}
			types[i+k] = r.Type
			res.lat = append(res.lat, int64(d))
		}
		tr.end(h, "server.wait", n)
	}
	if err := c.CloseWrite(); err != nil {
		return read, err
	}
	// Every sample has its response: the next read must be the end of
	// the stream, not an extra response.
	if r, err := c.ReadResponse(); !errors.Is(err, io.EOF) {
		return read, fmt.Errorf("after the last response: got %+v, %v; want EOF", r, err)
	}
	return read, nil
}

// shadowServe prices the pass's records in session order, warm-starting
// each session from the previous one's final snapshot exactly as the
// daemon's warm store does for back-to-back sessions, and counts served
// predictions the in-process learner does not reproduce.
func shadowServe(plan *servePlan, framing wire.Framing, types []cellular.HOType, res *result) *shadow {
	sh := newShadow(framing)
	var warm *core.Snapshot
	var op int64
	for s := 0; s < plan.sessions; s++ {
		st := plan.drives[s%len(plan.drives)]
		prog := newPrognos(true)
		if warm != nil {
			prog.Bootstrap(warm.Learner.Patterns)
		}
		sh.begin(prog, prognosConfigs())
		for i := 0; i < len(st); i += window {
			n := min(window, len(st)-i)
			if err := sh.window(st[i:i+n], int64(i), types[op+int64(i):op+int64(i+n)]); err != nil {
				res.failOps(op+int64(i), int64(len(st)-i), "shadow session %d: %v", s, err)
				break
			}
			// The daemon pushes its warm store every 512 samples.
			for k := i + 1; k <= i+n; k++ {
				if k%512 == 0 {
					sh.takeSnapshot()
				}
			}
		}
		snap := sh.takeSnapshot()
		warm = &snap
		op += int64(len(st))
	}
	if sh.mismatches > 0 {
		res.failCount(sh.mismatches, "the in-process learner disagrees with %d served predictions", sh.mismatches)
	}
	return sh
}

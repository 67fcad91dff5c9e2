package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/cellular"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
)

const (
	// burstLen is the samples a resumed session streams per op; the
	// burst ends burstAfterHO samples after a handover, so every resumed
	// session has a handover to predict.
	burstLen     = 32
	burstAfterHO = 8
	// minLearnedHOs skips each drive's first handovers: a snapshot taken
	// before them has learned nothing worth shipping.
	minLearnedHOs = 3
	shipTimeout   = 10 * time.Second
	shipOrigin    = "perfbench"
)

// parked is one token of the migrate pool: the warm state a session had
// when it parked mid-drive, and the burst it streams after resuming.
type parked struct {
	token string
	state cluster.SessionState
	burst []step
	hos   []cellular.HandoverEvent // the drive's handovers during the burst
}

// migratePlan is the fixed work of a migrate run: op j ships and resumes
// pool[j mod len(pool)], for a whole number of rounds of the pool.
type migratePlan struct {
	pool []parked
	ops  int
}

// newMigratePlan replays each drive through a learner and parks a session
// shortly before each handover: the snapshot there is the shipped state,
// and the next burstLen samples are the resumed stream. Tokens are dealt
// round-robin across drives until the pool is full. The plan runs about
// work ops.
func newMigratePlan(seed int64, logs []*trace.Log, poolSize, work int) *migratePlan {
	perDrive := make([][]parked, len(logs))
	for d, log := range logs {
		cuts := map[int]bool{}
		var order []int
		for k, ho := range log.Handovers {
			if k < minLearnedHOs {
				continue
			}
			end := sampleIndexAfter(log, ho.Time) + burstAfterHO
			start := end - burstLen
			if start <= 0 || end > len(log.Samples) || cuts[start] {
				continue
			}
			cuts[start] = true
			order = append(order, start)
		}
		prog := newPrognos(true)
		from := 0
		for _, start := range order {
			replay(prog, log, from, start)
			from = start
			snap := prog.Snapshot()
			burst := steps(log, start, start+burstLen)
			t0 := log.Samples[start-1].Time
			perDrive[d] = append(perDrive[d], parked{
				state: cluster.SessionState{Carrier: carrierName, Arch: driveArch, Snapshot: snap},
				burst: burst,
				hos:   handoversIn(log, t0, burst[len(burst)-1].sample.Time),
			})
		}
	}
	p := &migratePlan{}
	for k := 0; len(p.pool) < poolSize; k++ {
		added := false
		for d := range perDrive {
			if k < len(perDrive[d]) && len(p.pool) < poolSize {
				pk := perDrive[d][k]
				pk.token = fmt.Sprintf("perfbench-%d-%d", seed, len(p.pool))
				pk.state.Token = pk.token
				p.pool = append(p.pool, pk)
				added = true
			}
		}
		if !added {
			break
		}
	}
	if len(p.pool) > 0 {
		p.ops = len(p.pool) * max(1, int(math.Round(float64(work)/float64(len(p.pool)))))
	}
	return p
}

// sampleIndexAfter is the index of the first sample at or after t.
func sampleIndexAfter(log *trace.Log, t time.Duration) int {
	for i, s := range log.Samples {
		if s.Time >= t {
			return i
		}
	}
	return len(log.Samples)
}

// replay feeds samples [from, to) and their control records to p as the
// daemon would, predicting after every sample.
func replay(p *core.Prognos, log *trace.Log, from, to int) {
	for _, st := range steps(log, from, to) {
		for _, mr := range st.reports {
			p.OnReport(mr)
		}
		for _, ho := range st.hos {
			p.OnHandover(ho)
		}
		p.OnSample(st.sample)
		p.Predict()
	}
}

// runMigrate ships, resumes, streams and finishes one parked session per
// op, checking the ack, every response, and the daemon's migration
// counters. It calls pin before each round of the pool.
func runMigrate(plan *migratePlan, d *daemon, tr *tracer, pin func(round int)) *result {
	res := newResult(int64(plan.ops), tr)
	if len(plan.pool) == 0 {
		res.failAll("no parked sessions could be cut from the drives")
		return res
	}
	types := make([][]cellular.HOType, len(plan.pool))
	for i := range types {
		types[i] = make([]cellular.HOType, burstLen)
	}
	var shipped, shipBytes, rejected int64
	before, err := d.stats()
	if err != nil {
		res.failAll("stats before pass: %v", err)
		return res
	}
	cpu0, _ := cpuNS(d.pid())
	start := time.Now()
	for j := 0; j < plan.ops; j++ {
		if j%len(plan.pool) == 0 {
			pin(j / len(plan.pool))
		}
		pk := &plan.pool[j%len(plan.pool)]
		t0 := time.Now()
		st, err := migrateOp(d.addr, pk, int64(j), types[j%len(plan.pool)], tr)
		shipped++
		shipBytes += st.Bytes
		rejected += int64(st.Rejected)
		if err != nil {
			res.failOps(int64(j), 1, "op %d (%s): %v", j, pk.token, err)
		} else {
			res.lat = append(res.lat, int64(time.Since(t0)))
		}
		if (j+1)%len(plan.pool) == 0 {
			cpu, _ := cpuNS(d.pid())
			res.mark(0, int64(j+1), time.Since(start), cpu-cpu0)
		}
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
	okOps := res.ops - int64(len(res.bad))
	checkCounts(res, "migrated-in sessions", after.MigratedIn-before.MigratedIn, okOps, 1)
	checkCounts(res, "migrated resumes", after.MigratedResumes-before.MigratedResumes, okOps, 1)
	checkCounts(res, "samples", after.Samples-before.Samples, res.ops*burstLen, burstLen)

	// Every token's op is the same work each time round the pool, so each
	// parked session is scored once.
	var score eventScore
	for i, pk := range plan.pool[:min(len(plan.pool), plan.ops)] {
		ticks := make([]core.TickPrediction, burstLen)
		for k, s := range pk.burst {
			ticks[k] = core.TickPrediction{Time: s.sample.Time, Type: types[i][k]}
		}
		o := core.EvaluateEvents(ticks, pk.hos, time.Second)
		score.add(o.TP, o.FP, o.FN)
	}
	res.f1 = score.f1()

	if tr != nil {
		res.layers["server.dial_us"] = tr.perCallNS("server.dial") / 1e3
		res.layers["server.send_ns"] = tr.perOpNS("server.send")
		res.layers["server.wait_ns"] = tr.perOpNS("server.wait")
		res.layers["server.inner_p50_us"] = after.Latency.P50US
		res.layers["server.samples"] = float64(after.Samples - before.Samples)
		res.layers["server.predictions"] = float64(after.Predictions - before.Predictions)
		res.layers["cluster.ship_us_per_state"] = tr.perOpNS("cluster.ship") / 1e3
		res.layers["cluster.bytes_per_state"] = float64(shipBytes) / float64(max(shipped, 1))
		res.layers["cluster.reject_share"] = float64(rejected) / float64(max(shipped, 1))
		sh := shadowMigrate(plan, types, res)
		sh.layers(res.layers)
		// The shadow prices each pool entry once; every op round the pool
		// repeats the same work, so scale its cost to the ops run.
		perEntry := sh.daemonNS() / float64(min(len(plan.pool), plan.ops))
		res.layers["server.other_ns"] = (float64(res.cpuNS) - perEntry*float64(plan.ops)) / float64(plan.ops*burstLen)
	}
	return res
}

// migrateOp is one op: ship the parked state, resume the session by its
// token, stream the burst, finish, and check every response.
func migrateOp(addr string, pk *parked, op int64, types []cellular.HOType, tr *tracer) (cluster.ShipStats, error) {
	root := tr.begin("migrate.op", -1, op)
	defer tr.end(root, "migrate.op", 1)
	h := tr.begin("cluster.ship", root, op)
	st, err := cluster.Ship(addr, shipOrigin, []cluster.SessionState{pk.state}, shipTimeout)
	tr.end(h, "cluster.ship", 1)
	if err != nil {
		return st, fmt.Errorf("ship: %w", err)
	}
	if st.Sessions != 1 || st.Rejected != 0 {
		return st, fmt.Errorf("ship: %d sessions accepted, %d rejected", st.Sessions, st.Rejected)
	}
	h = tr.begin("server.dial", root, op)
	rc, err := server.DialResilient(addr, server.ResilientOptions{
		Hello: server.Hello{Carrier: carrierName, Arch: driveArch, SessionToken: pk.token},
		Dial:  server.ClientOptions{Framing: wire.FramingBinary, NoAutoFlush: true},
		Seed:  op,
	})
	tr.end(h, "server.dial", 0)
	if err != nil {
		return st, fmt.Errorf("resume: %w", err)
	}
	defer rc.Close()
	h = tr.begin("server.send", root, op)
	for _, s := range pk.burst {
		for _, mr := range s.reports {
			if err := rc.SendReport(mr); err != nil {
				return st, err
			}
		}
		for _, ho := range s.hos {
			if err := rc.SendHandover(ho); err != nil {
				return st, err
			}
		}
		if err := rc.SendSampleAsync(s.sample); err != nil {
			return st, err
		}
	}
	if err := rc.Finish(); err != nil {
		return st, err
	}
	tr.end(h, "server.send", burstLen)
	h = tr.begin("server.wait", root, op)
	defer tr.end(h, "server.wait", burstLen)
	for k, s := range pk.burst {
		r, err := rc.ReadResponse()
		if err != nil {
			return st, fmt.Errorf("response %d: %w", k+1, err)
		}
		// The shipped state carries no answered samples, so the resumed
		// stream numbers its responses from one.
		if r.Seq != int64(k+1) || r.Time != s.sample.Time {
			return st, fmt.Errorf("response seq %d time %v, want seq %d time %v", r.Seq, r.Time, k+1, s.sample.Time)
		}
		types[k] = r.Type
	}
	if r, err := rc.ReadResponse(); !errors.Is(err, io.EOF) {
		return st, fmt.Errorf("after the last response: got %+v, %v; want EOF", r, err)
	}
	if s := rc.Stats(); s.Reconnects != 0 {
		return st, fmt.Errorf("%d reconnects", s.Reconnects)
	}
	return st, nil
}

// shadowMigrate prices each pool entry once as the daemon serves it:
// restore the shipped snapshot and park it (one snapshot), serve the
// burst, then push the warm store and park again (two snapshots).
func shadowMigrate(plan *migratePlan, types [][]cellular.HOType, res *result) *shadow {
	sh := newShadow(wire.FramingBinary)
	for i := range plan.pool[:min(len(plan.pool), plan.ops)] {
		pk := &plan.pool[i]
		prog := newPrognos(false)
		sh.restoreInto(prog, pk.state.Snapshot)
		sh.begin(prog, prognosConfigs())
		sh.takeSnapshot()
		for k := 0; k < burstLen; k += window {
			if err := sh.window(pk.burst[k:k+window], int64(k), types[i][k:k+window]); err != nil {
				res.failOps(int64(i), 1, "shadow %s: %v", pk.token, err)
				break
			}
		}
		sh.takeSnapshot()
		sh.takeSnapshot()
	}
	if sh.mismatches > 0 {
		res.failCount(sh.mismatches, "the in-process learner disagrees with %d served predictions", sh.mismatches)
	}
	return sh
}

// Command perfbench is the repository's end-to-end benchmark. It builds
// every input from a seed, drives the real prognosd daemon (a fresh
// process per run) or the policy sweep with them, checks every output,
// and prints the run's metrics as one JSON line:
//
//	perfbench -workload serve_binary -seed 1 -seconds 20 -trace 0
//
// -trace 0 reports the end-to-end metrics; -trace 1 is the separate traced
// run that reports per-layer costs from spans around the benchmark's calls
// into each module plus an in-process shadow of the same records. See
// README.md for the workloads and what each metric should move.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

// setupRounds is how often a run sets up; setup_s is the median.
const setupRounds = 5

type metricSpec struct{ name, unit string }

// e2eMetrics are printed by untraced runs, layerMetrics by traced ones.
var e2eMetrics = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p90_us", "us"},
	{"cpu_ns_per_op", "ns"},
	{"peak_rss_mb", "MB"},
	{"ok_share", "share"},
	{"f1", "ratio"},
}

var layerMetrics = []metricSpec{
	{"server.dial_us", "us"},
	{"server.send_ns", "ns"},
	{"server.wait_ns", "ns"},
	{"server.inner_p50_us", "us"},
	{"server.samples", "count"},
	{"server.predictions", "count"},
	{"server.other_ns", "ns"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"wire.bytes_per_op", "B"},
	{"core.on_sample_ns", "ns"},
	{"core.on_report_ns", "ns"},
	{"core.on_handover_ns", "ns"},
	{"core.predict_ns", "ns"},
	{"core.predict_allocs", "count"},
	{"core.report_predict_ns", "ns"},
	{"core.match_share", "share"},
	{"radio.forecast_ns", "ns"},
	{"core.snapshot_us", "us"},
	{"core.restore_us", "us"},
	{"cluster.ship_us_per_state", "us"},
	{"cluster.bytes_per_state", "B"},
	{"cluster.reject_share", "share"},
	{"sim.ns_per_tick", "ns"},
	{"policygen.generate_us", "us"},
	{"experiments.carrier_ms", "ms"},
	{"experiments.carrier_errors", "count"},
	{"trace.ops_per_s", "1/s"},
	{"trace.overhead_share", "share"},
}

// Work sizes. A run does a fixed amount of work, set by --seconds times a
// nominal rate (ops per second on a 2-vCPU Xeon), so that every commit
// measures exactly the same work for a given seed and duration.
var nominalRate = map[string]float64{
	"serve_binary":   80000,
	"serve_jsonl":    21000,
	"sweep_drift":    14,
	"migrate_resume": 550,
}

const (
	serveDrives   = 32
	migrateDrives = 16
	migratePool   = 192
	// Probe sizes: a traced run also prices, at this small size, the
	// layers its own workload does not pass through.
	probeDrives, probeSessions = 2, 2
	probePool, probeOps        = 8, 16
	probeCarriers              = shadowCarriers
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string
	out      string
	// cpus are the CPUs a pinned pass moves between, one round of work
	// at a time; daemons start on the first.
	cpus []int
}

// outcome is everything a run measured.
type outcome struct {
	main    *result
	probes  map[string]*result
	setup   []float64
	setupTr *tracer
	inputs  map[string]int64
	// pinned is whether the measured pass ran pinned.
	pinned bool
}

func main() {
	var cfg config
	var traced int
	flag.StringVar(&cfg.workload, "workload", "", "serve_binary, serve_jsonl, sweep_drift or migrate_resume")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&cfg.seconds, "seconds", 20, "nominal measured seconds (sets the work size)")
	flag.IntVar(&traced, "trace", 0, "1 for the traced run with per-layer metrics")
	flag.StringVar(&cfg.bin, "bin", ".bench_build/bin", "directory holding the prognosd binary")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for run reports and spans")
	flag.Parse()
	cfg.trace = traced == 1
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	cpus, err := allowedCPUs()
	if err == nil {
		cfg.cpus = cpus
		err = run(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	rate, ok := nominalRate[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	work := int(math.Round(float64(cfg.seconds) * rate))
	var (
		o   *outcome
		err error
	)
	switch cfg.workload {
	case "serve_binary":
		o, err = serveWorkload(cfg, wire.FramingBinary, work)
	case "serve_jsonl":
		o, err = serveWorkload(cfg, wire.FramingJSONL, work)
	case "sweep_drift":
		o, err = sweepWorkload(cfg, work)
	case "migrate_resume":
		o, err = migrateWorkload(cfg, work)
	}
	if err != nil {
		return err
	}
	return report(cfg, o)
}

// setup runs one set-up round setupRounds times and returns the last
// round's state with the round times. A round that leaves a daemon
// running must stop it before the next round starts.
func setup[T any](round func(last bool) (T, error), undo func(T)) (T, []float64, error) {
	var (
		v     T
		times []float64
	)
	for r := 0; r < setupRounds; r++ {
		last := r == setupRounds-1
		start := time.Now()
		var err error
		v, err = round(last)
		times = append(times, time.Since(start).Seconds())
		if err != nil {
			return v, times, err
		}
		if !last {
			undo(v)
		}
	}
	return v, times, nil
}

type servedSetup struct {
	plan *servePlan
	d    *daemon
}

func (c config) daemonBin() string { return filepath.Join(c.bin, "prognosd") }

func passTracer(c config) *tracer {
	if c.trace {
		return newTracer()
	}
	return nil
}

// pinnedPass runs pass with GOMAXPROCS 1 and every thread of this process
// and of the daemon, if there is one, on one CPU, then unpins this
// process. Every measured pass runs this way. The workloads that hand
// work back and forth between perfbench and the daemon would otherwise
// wake the other CPU at each hand-off, and on the shared VM the benchmark
// was tuned on that wake-up's cost swings several-fold with host load.
// The pass calls pin at the start of each round of work, which moves the
// processes to the next of cfg.cpus: that VM's CPUs slow down partly
// independently, for seconds at a time, and the metrics take each unit's
// fastest repeat (README.md §Noise).
func pinnedPass(cfg config, d *daemon, pass func(pin func(round int)) *result) (*result, error) {
	old, err := getAffinity(0)
	if err != nil {
		return nil, err
	}
	var pinErr error
	pids := []int{0}
	if d != nil {
		pids = append(pids, d.pid())
	}
	pin := func(round int) {
		m := cpuMask(cfg.cpus[round%len(cfg.cpus)])
		for _, pid := range pids {
			if err := pinThreads(pid, m); err != nil && pinErr == nil {
				pinErr = err
			}
		}
	}
	if pin(0); pinErr != nil {
		return nil, pinErr
	}
	procs := runtime.GOMAXPROCS(1)
	res := pass(pin)
	runtime.GOMAXPROCS(procs)
	if pinErr != nil {
		res.note("pinning: %v", pinErr)
	}
	if err := pinThreads(0, old); err != nil {
		res.note("unpinning: %v", err)
	}
	return res, nil
}

// serveWorkload streams drives to the daemon in the given framing. Set-up
// is simulating the drives and starting the daemon.
func serveWorkload(cfg config, framing wire.Framing, samples int) (*outcome, error) {
	o := &outcome{setupTr: passTracer(cfg), probes: map[string]*result{}, pinned: true}
	s, times, err := setup(func(last bool) (servedSetup, error) {
		tr := o.setupTr
		if !last {
			tr = nil
		}
		logs, err := genDrives(cfg.seed, serveDrives, tr)
		if err != nil {
			return servedSetup{}, err
		}
		perRound := 0
		for _, l := range logs {
			perRound += len(l.Samples)
		}
		sessions := serveDrives * max(1, int(math.Round(float64(samples)/float64(perRound))))
		d, err := startDaemon(cfg.daemonBin(), cfg.cpus[0])
		return servedSetup{newServePlan(logs, sessions), d}, err
	}, func(s servedSetup) { s.d.stop() })
	o.setup = times
	if err != nil {
		s.d.stop()
		return nil, err
	}
	o.main, err = pinnedPass(cfg, s.d, func(pin func(int)) *result { return runServe(s.plan, s.d, framing, passTracer(cfg), pin) })
	if err != nil {
		s.d.stop()
		return nil, err
	}
	stopChecked(s.d, o.main)
	o.inputs = map[string]int64{"drives": serveDrives, "sessions": int64(s.plan.sessions), "samples": o.main.ops, "window": window}
	if cfg.trace {
		o.probes["migrate"] = migrateProbe(cfg, s.plan.logs[:probeDrives])
		o.probes["sweep"] = sweepProbe(cfg)
	}
	return o, nil
}

type migrateSetup struct {
	plan *migratePlan
	d    *daemon
}

// migrateWorkload ships and resumes parked sessions. Set-up is simulating
// the drives, replaying them to the parked snapshots, and starting the
// daemon.
func migrateWorkload(cfg config, ops int) (*outcome, error) {
	o := &outcome{setupTr: passTracer(cfg), probes: map[string]*result{}, pinned: true}
	s, times, err := setup(func(last bool) (migrateSetup, error) {
		tr := o.setupTr
		if !last {
			tr = nil
		}
		logs, err := genDrives(cfg.seed, migrateDrives, tr)
		if err != nil {
			return migrateSetup{}, err
		}
		plan := newMigratePlan(cfg.seed, logs, migratePool, ops)
		d, err := startDaemon(cfg.daemonBin(), cfg.cpus[0])
		return migrateSetup{plan, d}, err
	}, func(s migrateSetup) { s.d.stop() })
	o.setup = times
	if err != nil {
		s.d.stop()
		return nil, err
	}
	o.main, err = pinnedPass(cfg, s.d, func(pin func(int)) *result { return runMigrate(s.plan, s.d, passTracer(cfg), pin) })
	if err != nil {
		s.d.stop()
		return nil, err
	}
	stopChecked(s.d, o.main)
	o.inputs = map[string]int64{"drives": migrateDrives, "tokens": int64(len(s.plan.pool)), "ops": int64(s.plan.ops), "burst": burstLen}
	if cfg.trace {
		logs, err := genDrives(cfg.seed, probeDrives, nil)
		if err != nil {
			return nil, err
		}
		o.probes["serve"] = serveProbe(cfg, logs)
		o.probes["sweep"] = sweepProbe(cfg)
	}
	return o, nil
}

// sweepWorkload runs the drifting policy sweep: a population of carriers
// as large as the work allows, each run sweepRepeats times. Set-up is
// generating and validating the population's portfolios.
func sweepWorkload(cfg config, work int) (*outcome, error) {
	o := &outcome{probes: map[string]*result{}, pinned: true}
	carriers := max(1, int(math.Round(float64(work)/sweepRepeats/sweepRoundCarriers))) * sweepRoundCarriers
	plan, times, err := setup(func(bool) (*sweepPlan, error) {
		return newSweepPlan(cfg.seed, carriers, sweepRepeats)
	}, func(*sweepPlan) {})
	o.setup = times
	if err != nil {
		return nil, err
	}
	o.main, err = pinnedPass(cfg, nil, func(pin func(int)) *result { return runSweep(plan, passTracer(cfg), pin) })
	if err != nil {
		return nil, err
	}
	o.inputs = map[string]int64{"carriers": int64(carriers), "rounds": int64(len(plan.rounds)), "repeats": int64(plan.repeats),
		"drive_seconds": sweepDriveSeconds, "jobs": 1}
	if cfg.trace {
		logs, err := genDrives(cfg.seed, probeDrives, nil)
		if err != nil {
			return nil, err
		}
		o.probes["serve"] = serveProbe(cfg, logs)
		o.probes["migrate"] = migrateProbe(cfg, logs)
	}
	return o, nil
}

// The probes run like their workloads, each on a fresh daemon so that its
// counters are theirs.

func serveProbe(cfg config, logs []*trace.Log) *result {
	d, err := startDaemon(cfg.daemonBin(), cfg.cpus[0])
	if err != nil {
		return failedProbe(err)
	}
	plan := newServePlan(logs, probeSessions)
	res, err := pinnedPass(cfg, d, func(pin func(int)) *result { return runServe(plan, d, wire.FramingBinary, newTracer(), pin) })
	if err != nil {
		d.stop()
		return failedProbe(err)
	}
	stopChecked(d, res)
	return res
}

func migrateProbe(cfg config, logs []*trace.Log) *result {
	d, err := startDaemon(cfg.daemonBin(), cfg.cpus[0])
	if err != nil {
		return failedProbe(err)
	}
	plan := newMigratePlan(cfg.seed, logs, probePool, probeOps)
	res, err := pinnedPass(cfg, d, func(pin func(int)) *result { return runMigrate(plan, d, newTracer(), pin) })
	if err != nil {
		d.stop()
		return failedProbe(err)
	}
	stopChecked(d, res)
	return res
}

func sweepProbe(cfg config) *result {
	plan, err := newSweepPlan(cfg.seed, probeCarriers, 1)
	if err != nil {
		return failedProbe(err)
	}
	res, err := pinnedPass(cfg, nil, func(pin func(int)) *result { return runSweep(plan, newTracer(), pin) })
	if err != nil {
		return failedProbe(err)
	}
	return res
}

// stopChecked drains the daemon after a pass. A daemon that does not
// drain cleanly fails every op of the pass.
func stopChecked(d *daemon, res *result) {
	if err := d.stop(); err != nil {
		res.failAll("stopping prognosd: %v", err)
	}
}

func failedProbe(err error) *result {
	r := newResult(1, nil)
	r.failAll("probe set-up: %v", err)
	return r
}

package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"time"

	"repro/internal/cellular"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/geo"
	"repro/internal/metrics"
	"repro/internal/policygen"
	"repro/internal/ran"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// sweepDriveSeconds is each carrier's drive; the policy drifts halfway.
// It asks for less than one lap of the sweep's loop, so each carrier
// drives exactly one lap, about 289 s.
const sweepDriveSeconds = 280

// The sweep's drive shape, repeated here so a traced run can re-drive a
// carrier through the public functions the sweep itself calls.
const (
	sweepPerimeterM  = 2400.0
	sweepSpeedMPS    = 8.3
	sweepCityDensity = 0.7
	sweepSimSalt     = 0x51edd005
	shadowCarriers   = 4
)

// A measured sweep runs its population in rounds of sweepRoundCarriers,
// each round its own experiments.RunSweep population with a seed of its
// own, and goes over the whole population sweepRepeats times. Run for
// run, four repeats of 140 carriers spread well under half as much on
// latency_p50_us as two repeats of 300 did (README.md §Noise).
const (
	sweepRepeats       = 4
	sweepRoundCarriers = 20
	sweepRoundSalt     = 1 << 20
)

// sweepRound is one RunSweep population: generated carriers, each with a
// base portfolio and the one it drifts to. The report must name each
// one's decision sequences.
type sweepRound struct {
	seed    int64
	base    []policygen.Portfolio
	drifted []policygen.Portfolio
}

// sweepPlan is the sweep's fixed work: its rounds, each run repeats times.
type sweepPlan struct {
	rounds   []sweepRound
	carriers int
	repeats  int
	genNS    int64
}

func newSweepPlan(seed int64, carriers, repeats int) (*sweepPlan, error) {
	p := &sweepPlan{carriers: carriers, repeats: max(1, repeats)}
	start := time.Now()
	for r := 0; r*sweepRoundCarriers < carriers; r++ {
		rd := sweepRound{seed: policygen.MixSeed(seed, sweepRoundSalt+r)}
		for i := 0; i < min(sweepRoundCarriers, carriers-r*sweepRoundCarriers); i++ {
			b, d := policygen.Generate(rd.seed, i), policygen.Drifted(rd.seed, i)
			if err := b.Validate(); err != nil {
				return nil, fmt.Errorf("round %d carrier %d: %w", r, i, err)
			}
			if err := d.Validate(); err != nil {
				return nil, fmt.Errorf("round %d carrier %d drift: %w", r, i, err)
			}
			rd.base, rd.drifted = append(rd.base, b), append(rd.drifted, d)
		}
		p.rounds = append(p.rounds, rd)
	}
	p.genNS = int64(time.Since(start))
	return p, nil
}

// runSweep runs the population through experiments.RunSweep on one
// worker, one round per call, repeats times over. Before each call it
// calls pin, so that each repeat runs a round on another CPU than the
// repeat before, a pass over the population later. One op is one carrier
// run; its latency and CPU run from the end of the carrier before it in
// the same call (or the call's start) to its own end. Every carrier is a
// unit of work, so the timed metrics take each carrier's fastest repeat,
// and its percentiles are pooled over those. Every repeat must report
// what the first one did.
func runSweep(plan *sweepPlan, tr *tracer, pin func(round int)) *result {
	res := newResult(int64(plan.carriers*plan.repeats), tr)
	res.pooled = true
	root := tr.begin("experiments.run_sweep", -1, 0)
	var (
		want  = make([][]metrics.SweepCarrier, len(plan.rounds))
		first []metrics.SweepCarrier
		errs  int
		op    int64
	)
	cpu0 := selfCPUNS()
	start := time.Now()
	for k := 0; k < plan.repeats; k++ {
		for r, rd := range plan.rounds {
			pin(r + k)
			from, unit0 := op, r*sweepRoundCarriers
			last := time.Now()
			rep, err := experiments.RunSweep(context.Background(), experiments.SweepConfig{
				Carriers:     len(rd.base),
				Seed:         rd.seed,
				Drift:        true,
				Jobs:         1,
				DriveSeconds: sweepDriveSeconds,
				OnCarrier: func(c metrics.SweepCarrier) {
					now, cpu := time.Now(), selfCPUNS()
					res.lat = append(res.lat, int64(now.Sub(last)))
					tr.record("experiments.carrier", root, op, 1, last, now)
					op++
					res.mark(unit0+c.Index, op, now.Sub(start), cpu-cpu0)
					last = now
				},
			})
			n := int64(len(rd.base))
			switch {
			case err != nil:
				res.failOps(from, n, "round %d: sweep: %v", r, err)
			case len(rep.Results) != len(rd.base):
				res.failOps(from, n, "round %d: report has %d carriers, want %d", r, len(rep.Results), len(rd.base))
			default:
				errs += checkSweep(res, rd, rep.Results, want[r], from, r)
				if want[r] == nil {
					want[r] = rep.Results
					first = append(first, rep.Results...)
				}
			}
			// A failed call leaves its carriers unrun: count them as run
			// so that later ops keep their numbers.
			op = from + n
		}
	}
	res.wall = time.Since(start)
	res.cpuNS = selfCPUNS() - cpu0
	tr.end(root, "experiments.run_sweep", int(res.ops))
	res.rssMB, _ = peakRSSMB(0)
	all := metrics.SweepReport{Results: first}
	all.Summarize()
	res.f1 = all.Summary.MedianFinalF1

	if tr != nil {
		res.layers["experiments.carrier_ms"] = tr.perCallNS("experiments.carrier") / 1e6
		res.layers["experiments.carrier_errors"] = float64(errs)
		res.layers["policygen.generate_us"] = float64(plan.genNS) / float64(plan.carriers) / 1e3
		sh, simNS, ticks := shadowSweep(plan.rounds[0], want[0], res)
		sh.layers(res.layers)
		res.layers["sim.ns_per_tick"] = float64(simNS) / float64(max(ticks, 1))
	}
	return res
}

// checkSweep checks one repeat of a round, whose first op is from: no
// carrier has an Error, each names the portfolios perfbench generated,
// and, after the first repeat, each reports what the first did. It
// returns the number of carrier errors.
func checkSweep(res *result, rd sweepRound, got, want []metrics.SweepCarrier, from int64, r int) int {
	errs := 0
	for i, c := range got {
		switch {
		case c.Error != "":
			errs++
			res.failOps(from+int64(i), 1, "round %d carrier %d: %s", r, i, c.Error)
		case c.Index != i || c.Sequence != rd.base[i].SequenceString() ||
			c.DriftSequence != rd.drifted[i].SequenceString():
			res.failOps(from+int64(i), 1, "round %d carrier %d reported index %d sequences %q→%q, generated %q→%q", r, i, c.Index,
				c.Sequence, c.DriftSequence, rd.base[i].SequenceString(), rd.drifted[i].SequenceString())
		case want != nil && !reflect.DeepEqual(c, want[i]):
			res.failOps(from+int64(i), 1, "round %d carrier %d: a repeat reported %+v, the first run %+v", r, i, c, want[i])
		}
	}
	return errs
}

// shadowSweep re-drives the first carriers the way the sweep does —
// portfolio, drifting scenario, sim.Run, an online learner over the
// trace — pricing the simulator per tick and the learner per call. Each
// re-driven trace must match the report's handover and report counts.
func shadowSweep(rd sweepRound, got []metrics.SweepCarrier, res *result) (sh *shadow, simNS, ticks int64) {
	sh = newShadow(wire.FramingBinary)
	driftAt := time.Duration(sweepDriveSeconds / 2 * float64(time.Second))
	laps := int(math.Ceil(sweepDriveSeconds * sweepSpeedMPS / sweepPerimeterM))
	for i := 0; i < min(shadowCarriers, len(rd.base)); i++ {
		base, drifted := rd.base[i], rd.drifted[i]
		start := time.Now()
		log, err := sim.Run(sim.Config{
			Carrier:      base.Deployment,
			Arch:         cellular.ArchNSA,
			RouteKind:    geo.RouteCityLoop,
			RouteLengthM: sweepPerimeterM,
			Laps:         laps,
			SpeedMPS:     sweepSpeedMPS,
			Seed:         policygen.MixSeed(rd.seed, i) ^ sweepSimSalt,
			Scenario:     &policygen.Scenario{Base: base, Drifts: []policygen.Drift{{At: driftAt, Portfolio: drifted}}},
			TopoOpts:     topology.Options{CityDensity: sweepCityDensity},
		})
		simNS += int64(time.Since(start))
		if err != nil {
			res.failOps(int64(i), 1, "shadow carrier %d: %v", i, err)
			continue
		}
		ticks += int64(len(log.Samples))
		if i < len(got) && (got[i].Handovers != len(log.Handovers) || got[i].Reports != len(log.Reports)) {
			res.failOps(int64(i), 1, "shadow carrier %d drove %d handovers and %d reports, the sweep %d and %d",
				i, len(log.Handovers), len(log.Reports), got[i].Handovers, got[i].Reports)
		}
		configs := unionConfigs(ran.EventConfigsFromPortfolio(&base, cellular.ArchNSA),
			ran.EventConfigsFromPortfolio(&drifted, cellular.ArchNSA))
		prog, err := core.New(core.Config{EventConfigs: configs, UseReportPredictor: true, Arch: cellular.ArchNSA})
		if err != nil {
			res.failOps(int64(i), 1, "shadow carrier %d: %v", i, err)
			continue
		}
		sh.begin(prog, configs)
		st := steps(log, 0, len(log.Samples))
		for k := 0; k < len(st); k += window {
			if err := sh.window(st[k:min(k+window, len(st))], int64(k), nil); err != nil {
				res.failOps(int64(i), 1, "shadow carrier %d: %v", i, err)
				break
			}
		}
	}
	return sh, simNS, ticks
}

// unionConfigs merges two event-config tables, keeping the first of each
// (type, tech) pair, as the sweep does for a drifting carrier.
func unionConfigs(a, b []cellular.EventConfig) []cellular.EventConfig {
	seen := map[[2]int]bool{}
	var out []cellular.EventConfig
	for _, c := range append(append([]cellular.EventConfig{}, a...), b...) {
		k := [2]int{int(c.Type), int(c.Tech)}
		if !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}

package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cellular"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/policygen"
	"repro/internal/ran"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Every input is a pure function of the run's seed. The serve and migrate
// workloads drive OpX over NSA on the freeway, the fleet generator's
// default drive.
const (
	carrierName  = "OpX"
	driveRouteM  = 5000.0
	driveSpeedMS = 29.0
)

var driveArch = cellular.ArchNSA

// driveSeed derives drive i's simulator seed from the run seed.
func driveSeed(seed int64, i int) int64 { return policygen.MixSeed(seed, 1000+i) }

// genDrives simulates n freeway drives on two workers, returning them in
// index order with the wall time sim.Run spent on each.
func genDrives(seed int64, n int, tr *tracer) ([]*trace.Log, error) {
	carrier, err := topology.CarrierByName(carrierName)
	if err != nil {
		return nil, err
	}
	logs := make([]*trace.Log, n)
	errs := make([]error, n)
	spans := make([][2]time.Time, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				start := time.Now()
				logs[i], errs[i] = sim.Run(sim.Config{
					Carrier:      carrier,
					Arch:         driveArch,
					RouteKind:    geo.RouteFreeway,
					RouteLengthM: driveRouteM,
					SpeedMPS:     driveSpeedMS,
					Seed:         driveSeed(seed, i),
				})
				spans[i] = [2]time.Time{start, time.Now()}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("drive %d: %w", i, err)
		}
		if len(logs[i].Samples) == 0 {
			return nil, fmt.Errorf("drive %d has no samples", i)
		}
		tr.record("sim.run", -1, int64(i), len(logs[i].Samples), spans[i][0], spans[i][1])
	}
	return logs, nil
}

// prognosConfigs are the event configs the daemon sniffs for OpX/NSA.
func prognosConfigs() []cellular.EventConfig { return ran.EventConfigsFor(carrierName, driveArch) }

// newPrognos builds the learner the daemon builds for a new OpX/NSA
// session. The daemon installs a shipped session into a learner without
// the report predictor (installMigrated), so reportPredictor is false for
// those.
func newPrognos(reportPredictor bool) *core.Prognos {
	p, err := core.New(core.Config{
		EventConfigs:       prognosConfigs(),
		Arch:               driveArch,
		UseReportPredictor: reportPredictor,
	})
	if err != nil {
		panic(err) // the built-in carrier always has event configs
	}
	return p
}

// step is one sample with the control records due at or before it, in
// the order the fleet generator sends them: reports, handovers, sample.
type step struct {
	reports []cellular.MeasurementReport
	hos     []cellular.HandoverEvent
	sample  trace.Sample
}

// steps splits log[from:to] into sample steps.
func steps(log *trace.Log, from, to int) []step {
	ri, hi := 0, 0
	var t0 time.Duration = -1
	if from > 0 {
		t0 = log.Samples[from-1].Time
	}
	for ri < len(log.Reports) && log.Reports[ri].Time <= t0 {
		ri++
	}
	for hi < len(log.Handovers) && log.Handovers[hi].Time <= t0 {
		hi++
	}
	out := make([]step, 0, to-from)
	for _, s := range log.Samples[from:to] {
		r0, h0 := ri, hi
		for ri < len(log.Reports) && log.Reports[ri].Time <= s.Time {
			ri++
		}
		for hi < len(log.Handovers) && log.Handovers[hi].Time <= s.Time {
			hi++
		}
		out = append(out, step{reports: log.Reports[r0:ri], hos: log.Handovers[h0:hi], sample: s})
	}
	return out
}

// handoversIn returns the drive's handovers with t0 < Time <= t1.
func handoversIn(log *trace.Log, t0, t1 time.Duration) []cellular.HandoverEvent {
	var out []cellular.HandoverEvent
	for _, ho := range log.Handovers {
		if ho.Time > t0 && ho.Time <= t1 {
			out = append(out, ho)
		}
	}
	return out
}

package experiments

import (
	"fmt"
	"time"

	"repro/internal/abr"
	"repro/internal/baseline"
	"repro/internal/cellular"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/geo"
	"repro/internal/ran"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
)

// d1Carrier returns the D1-style deployment: mmWave 5G plus mid-band LTE
// only (the paper's D1 dataset has no low-band 5G coverage).
func d1Carrier() topology.CarrierProfile {
	c := topology.OpX()
	var nr []topology.Layer
	for _, l := range c.NRLayers {
		if l.Band == cellular.BandMMWave {
			nr = append(nr, l)
		}
	}
	c.NRLayers = nr
	return c
}

// predictionDataset builds one of the §7.3 walking datasets.
func predictionDataset(name string, opts Options) (*trace.Log, error) {
	switch name {
	case "D1":
		// 7× 35-minute walking loops of a tourist area (mmWave + LTE).
		return opts.walkCustom(d1Carrier(), 2900, opts.scaleInt(7), opts.Seed+70)
	case "D2":
		// 10× 25-minute loops downtown, low-band 5G as well.
		return opts.walkCustom(topology.OpX(), 2100, opts.scaleInt(10), opts.Seed+71)
	default:
		return nil, fmt.Errorf("unknown dataset %q", name)
	}
}

// walkCustom is the walking collection run both §7.3 datasets share.
func (opts Options) walkCustom(carrier topology.CarrierProfile, perimeterM float64, laps int, seed int64) (*trace.Log, error) {
	return opts.walkLoop(carrier, cellular.ArchNSA, perimeterM, laps, seed)
}

// splitByTime cuts a log at the given fraction of its duration (the 60/40
// train/test split of §7.3).
func splitByTime(l *trace.Log, frac float64) (train, test *trace.Log) {
	cut := time.Duration(float64(l.Duration()) * frac)
	train = &trace.Log{Carrier: l.Carrier, Arch: l.Arch, RouteKind: l.RouteKind}
	test = &trace.Log{Carrier: l.Carrier, Arch: l.Arch, RouteKind: l.RouteKind}
	for _, s := range l.Samples {
		if s.Time < cut {
			train.Samples = append(train.Samples, s)
		} else {
			test.Samples = append(test.Samples, s)
		}
	}
	for _, r := range l.Reports {
		if r.Time < cut {
			train.Reports = append(train.Reports, r)
		} else {
			test.Reports = append(test.Reports, r)
		}
	}
	for _, h := range l.Handovers {
		if h.Time < cut {
			train.Handovers = append(train.Handovers, h)
		} else {
			test.Handovers = append(test.Handovers, h)
		}
	}
	return train, test
}

// Table3 reproduces the prediction comparison on the D1/D2 walking datasets
// (paper: Prognos F1 0.92/0.94 vs GBC 0.48/0.40 and stacked LSTM
// 0.28/0.24). Event-level F1/precision/recall with a 1 s prediction window;
// accuracy is window-level.
func Table3(opts Options) (Table, error) {
	opts = opts.withDefaults()
	t := Table{
		ID:     "table3",
		Title:  "HO prediction on D1 and D2 (event-level, 1 s window)",
		Header: []string{"dataset", "method", "F1", "precision", "recall", "accuracy"},
	}
	for _, ds := range []string{"D1", "D2"} {
		log, err := predictionDataset(ds, opts)
		if err != nil {
			return Table{}, err
		}
		train, test := splitByTime(log, 0.6)
		if len(test.Handovers) == 0 {
			return Table{}, fmt.Errorf("table3: %s test split has no handovers", ds)
		}

		gbcParams := baseline.GBCParams{Seed: opts.Seed + 80}
		gbc, err := baseline.TrainGBC(baseline.ExtractExamples(train, time.Second, gbcParams), gbcParams)
		if err != nil {
			return Table{}, fmt.Errorf("table3: %s GBC: %w", ds, err)
		}
		lstmParams := baseline.LSTMParams{Seed: opts.Seed + 81, Epochs: 6, NegativeKeep: 0.02}
		lstm, err := baseline.TrainLSTM(baseline.ExtractSequences(train, time.Second, lstmParams), lstmParams)
		if err != nil {
			return Table{}, fmt.Errorf("table3: %s LSTM: %w", ds, err)
		}
		lstmPred := baseline.NewLSTMPredictor(lstm)
		// Ozturk et al.'s model over-fires (high recall, poor precision);
		// the permissive threshold reproduces that profile.
		lstmPred.Threshold = 0.25

		prog, err := core.New(core.Config{
			EventConfigs:       ran.EventConfigsFor(log.Carrier, cellular.ArchNSA),
			Arch:               cellular.ArchNSA,
			UseReportPredictor: true,
		})
		if err != nil {
			return Table{}, err
		}
		progTicks := core.Replay(prog, log)
		cut := test.Samples[0].Time
		var progTest []core.TickPrediction
		for _, tk := range progTicks {
			if tk.Time >= cut {
				progTest = append(progTest, tk)
			}
		}

		evals := []struct {
			name string
			ev   core.EventOutcome
		}{
			{"GBC", core.EvaluateEvents(core.Replay(baseline.NewGBCPredictor(gbc), test), test.Handovers, time.Second)},
			{"Stacked LSTM", core.EvaluateEvents(core.Replay(lstmPred, test), test.Handovers, time.Second)},
			{"Prognos (ours)", core.EvaluateEvents(progTest, test.Handovers, time.Second)},
		}
		for _, e := range evals {
			t.Rows = append(t.Rows, []string{
				ds, e.name,
				fmtF(e.ev.F1(), 3), fmtF(e.ev.Precision(), 3), fmtF(e.ev.Recall(), 3), fmtF(e.ev.Accuracy(), 3),
			})
		}
	}
	t.Notes = append(t.Notes, "paper: Prognos 0.919/0.936, GBC 0.475/0.396, stacked LSTM 0.284/0.241")
	return t, nil
}

// scoreFuncs builds the three ScoreAt variants for an ABR session over a
// log segment: PR queries Prognos' replayed prediction standing at the
// decision instant, GT consults the actual handovers in the decision's
// look-ahead window, and the base variant carries only the HasHO ground
// truth for error attribution.
func scoreFuncs(ticks []core.TickPrediction, handovers []cellular.HandoverEvent, from, horizon time.Duration) (pr, gt, none abr.ScoreAtFunc) {
	scores := core.DefaultScores()
	hasHOIn := func(start, end time.Duration) (bool, cellular.HOType) {
		for _, h := range handovers {
			if h.Time >= start && h.Time < end {
				return true, h.Type
			}
			if h.Time >= end {
				break
			}
		}
		return false, cellular.HONone
	}
	predAt := func(t time.Duration) cellular.HOType {
		lo, hi := 0, len(ticks)-1
		if hi < 0 {
			return cellular.HONone
		}
		for lo < hi {
			mid := (lo + hi + 1) / 2
			if ticks[mid].Time <= t {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		return ticks[lo].Type
	}
	pr = func(now time.Duration) abr.ChunkContext {
		t := from + now
		hs, _ := hasHOIn(t, t+horizon)
		return abr.ChunkContext{Score: scores.Score(predAt(t)), HasHO: hs}
	}
	gt = func(now time.Duration) abr.ChunkContext {
		t := from + now
		hs, typ := hasHOIn(t, t+horizon)
		return abr.ChunkContext{Score: scores.Score(typ), HasHO: hs}
	}
	none = func(now time.Duration) abr.ChunkContext {
		t := from + now
		hs, _ := hasHOIn(t, t+horizon)
		return abr.ChunkContext{Score: 1, HasHO: hs}
	}
	return pr, gt, none
}

// abrWindow is one usable 240 s bandwidth window within a drive log.
type abrWindow struct {
	log   *trace.Log
	ticks []core.TickPrediction
	from  time.Duration
	bw    *emu.BandwidthTrace
}

// collectABRWindows generates drive logs and slices them into 240 s windows
// passing the paper's trace filter (mean < 400 Mbps, min > 2 Mbps).
func collectABRWindows(opts Options, want int) ([]abrWindow, error) {
	var out []abrWindow
	const winDur = 240 * time.Second
	for seedOff := int64(0); len(out) < want && seedOff < 8; seedOff++ {
		log, err := opts.cityDrive(topology.OpX(), cellular.ArchNSA, 0, 6000, 6, opts.Seed+90+seedOff)
		if err != nil {
			return nil, err
		}
		prog, err := core.New(core.Config{
			EventConfigs:       ran.EventConfigsFor(log.Carrier, cellular.ArchNSA),
			Arch:               cellular.ArchNSA,
			UseReportPredictor: true,
		})
		if err != nil {
			return nil, err
		}
		ticks := core.Replay(prog, log)
		for from := 60 * time.Second; from+winDur < log.Duration() && len(out) < want; from += winDur {
			bw, err := bandwidthTrace(log, from, from+winDur)
			if err != nil {
				continue
			}
			// The paper's trace filter: average below 400 Mbps, minimum
			// above 2 Mbps. The minimum is taken over 1 s smoothing — raw
			// 100 ms bins legitimately hit zero inside HO interruptions.
			if bw.Mean() >= 400 || minOverSeconds(bw.Mbps, 10) <= 2 {
				continue
			}
			out = append(out, abrWindow{log: log, ticks: ticks, from: from, bw: bw})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no bandwidth windows passed the trace filter")
	}
	return out, nil
}

// minOverSeconds returns the minimum of win-sample rolling means.
func minOverSeconds(mbps []float64, win int) float64 {
	if win < 1 || len(mbps) < win {
		return 0
	}
	sum := 0.0
	for i := 0; i < win; i++ {
		sum += mbps[i]
	}
	minv := sum / float64(win)
	for i := win; i < len(mbps); i++ {
		sum += mbps[i] - mbps[i-win]
		if m := sum / float64(win); m < minv {
			minv = m
		}
	}
	return minv
}

// Fig14 reproduces the 16K panoramic VoD study (Fig. 14a/b): stall and
// quality for RB/fastMPC/robustMPC with and without HO-aware throughput
// correction, plus the prediction-error improvement during HO chunks.
func Fig14(opts Options) (Table, error) {
	opts = opts.withDefaults()
	windows, err := collectABRWindows(opts, opts.scaleInt(8))
	if err != nil {
		return Table{}, err
	}
	video := abr.Panoramic16K()
	algs := []abr.Algorithm{abr.RB{}, abr.MPC{}, abr.MPC{Robust: true}}

	type agg struct {
		stall, bitrate []float64
		errHO, errNoHO []float64
	}
	results := map[string]*agg{}
	get := func(k string) *agg {
		if results[k] == nil {
			results[k] = &agg{}
		}
		return results[k]
	}

	for _, w := range windows {
		pr, gt, none := scoreFuncs(w.ticks, w.log.Handovers, w.from, video.ChunkDur)
		for _, alg := range algs {
			for _, v := range []struct {
				suffix string
				scores abr.ScoreAtFunc
			}{{"", none}, {"-GT", gt}, {"-PR", pr}} {
				link := emu.NewLink(w.bw, 40*time.Millisecond)
				res, err := abr.PlayVoD(video, link, alg, v.scores)
				if err != nil {
					return Table{}, err
				}
				a := get(alg.Name() + v.suffix)
				a.stall = append(a.stall, res.StallPct)
				a.bitrate = append(a.bitrate, res.NormalizedBitrate)
				a.errHO = append(a.errHO, res.PredErrHO...)
				a.errNoHO = append(a.errNoHO, res.PredErrNoHO...)
			}
		}
	}

	t := Table{
		ID:     "fig14",
		Title:  "16K panoramic VoD QoE with HO-aware rate adaptation",
		Header: []string{"algorithm", "stall (%)", "norm. bitrate", "stall vs base", "tput MAE w/HO (Mbps)", "MAE w/o HO"},
	}
	for _, alg := range algs {
		base := get(alg.Name())
		for _, suffix := range []string{"", "-PR", "-GT"} {
			a := get(alg.Name() + suffix)
			rel := "-"
			if suffix != "" && stats.Mean(base.stall) > 0 {
				rel = fmtF((stats.Mean(a.stall)/stats.Mean(base.stall)-1)*100, 1) + "%"
			}
			t.Rows = append(t.Rows, []string{
				alg.Name() + suffix,
				fmtF(stats.Mean(a.stall), 2),
				fmtF(stats.Mean(a.bitrate), 3),
				rel,
				fmtF(stats.Mean(a.errHO), 1),
				fmtF(stats.Mean(a.errNoHO), 1),
			})
		}
	}
	fm, fmpr := get("fastMPC"), get("fastMPC-PR")
	if eHO, eHOpr := stats.Mean(fm.errHO), stats.Mean(fmpr.errHO); eHO > 0 {
		t.Notes = append(t.Notes, hoErrorNote(eHO, eHOpr))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("%d trace windows of 240 s (paper used 40+); paper: stall reduced 34.6-58.6%% with ~unchanged quality", len(windows)))
	return t, nil
}

// hoErrorNote words the change in fastMPC's throughput prediction error
// during handover chunks once Prognos feeds it: "better" when the error
// shrank, "worse" when it grew.
func hoErrorNote(eHO, eHOpr float64) string {
	change, word := (1-eHOpr/eHO)*100, "better"
	if change < 0 {
		change, word = -change, "worse"
	}
	return fmt.Sprintf("fastMPC tput prediction error during HO chunks: %.1f -> %.1f Mbps with Prognos (%.0f%% %s; paper 52-61%%)",
		eHO, eHOpr, change, word)
}

// Fig14c reproduces the real-time volumetric study: quality and stall for
// ViVo and FESTIVE with GT/PR HO-awareness (paper: quality +15.1-36.2%,
// stall −0.24-3.67%).
func Fig14c(opts Options) (Table, error) {
	opts = opts.withDefaults()
	windows, err := collectABRWindows(opts, opts.scaleInt(8))
	if err != nil {
		return Table{}, err
	}
	video := abr.ViVoVideo()
	algs := []abr.Algorithm{abr.ViVoRate{}, abr.FESTIVE{}}

	type agg struct{ stall, quality []float64 }
	results := map[string]*agg{}
	get := func(k string) *agg {
		if results[k] == nil {
			results[k] = &agg{}
		}
		return results[k]
	}
	for _, w := range windows {
		pr, gt, none := scoreFuncs(w.ticks, w.log.Handovers, w.from, video.SegDur)
		for _, alg := range algs {
			for _, v := range []struct {
				suffix string
				scores abr.ScoreAtFunc
			}{{"", none}, {"-GT", gt}, {"-PR", pr}} {
				link := emu.NewLink(w.bw, 40*time.Millisecond)
				res, err := abr.PlayVolumetric(video, link, alg, v.scores)
				if err != nil {
					return Table{}, err
				}
				a := get(alg.Name() + v.suffix)
				a.stall = append(a.stall, res.StallPct)
				a.quality = append(a.quality, res.AvgLevelBitrate)
			}
		}
	}
	t := Table{
		ID:     "fig14c",
		Title:  "Real-time volumetric streaming QoE with HO-aware rate adaptation",
		Header: []string{"algorithm", "avg quality (Mbps)", "stall (%)", "quality change", "stall change", "paper"},
	}
	for _, alg := range algs {
		base := get(alg.Name())
		for _, suffix := range []string{"", "-PR", "-GT"} {
			a := get(alg.Name() + suffix)
			qc, sc := "-", "-"
			paper := "-"
			if suffix != "" {
				qc = fmtF((stats.Mean(a.quality)/stats.Mean(base.quality)-1)*100, 1) + "%"
				sc = fmtF(stats.Mean(a.stall)-stats.Mean(base.stall), 2) + "pp"
				if suffix == "-PR" {
					paper = "quality +15.1-36.2%"
				}
			}
			t.Rows = append(t.Rows, []string{alg.Name() + suffix, fmtF(stats.Mean(a.quality), 1), fmtF(stats.Mean(a.stall), 2), qc, sc, paper})
		}
	}
	return t, nil
}

// Fig15 reproduces the bootstrapping study: F1 over time for a cold-started
// Prognos vs one seeded with the most frequent pattern per HO type (paper:
// bootstrap reaches F1 0.8 within 1.5 min; cold start needs 11-14 min).
func Fig15(opts Options) (Table, error) {
	opts = opts.withDefaults()
	teacherLog, err := predictionDataset("D1", opts)
	if err != nil {
		return Table{}, err
	}
	mk := func() (*core.Prognos, error) {
		return core.New(core.Config{
			EventConfigs:       ran.EventConfigsFor(teacherLog.Carrier, cellular.ArchNSA),
			Arch:               cellular.ArchNSA,
			UseReportPredictor: true,
		})
	}
	teacher, err := mk()
	if err != nil {
		return Table{}, err
	}
	core.Replay(teacher, teacherLog)
	patterns := frequentPatterns(teacher.Learner().Patterns())

	testLog, err := opts.walkCustom(d1Carrier(), 2900, opts.scaleInt(3), opts.Seed+101)
	if err != nil {
		return Table{}, err
	}
	cold, err := mk()
	if err != nil {
		return Table{}, err
	}
	warm, err := mk()
	if err != nil {
		return Table{}, err
	}
	warm.Bootstrap(patterns)

	coldTicks := core.Replay(cold, testLog)
	warmTicks := core.Replay(warm, testLog)

	t := Table{
		ID:     "fig15",
		Title:  "Startup F1 with and without frequent-pattern bootstrap",
		Header: []string{"minutes elapsed", "F1 cold", "F1 bootstrapped"},
	}
	bucket := 4 * time.Minute
	for from := time.Duration(0); from < testLog.Duration(); from += bucket {
		to := from + bucket
		slice := func(ticks []core.TickPrediction) []core.TickPrediction {
			var out []core.TickPrediction
			for _, tk := range ticks {
				if tk.Time >= from && tk.Time < to {
					out = append(out, tk)
				}
			}
			return out
		}
		var hos []cellular.HandoverEvent
		for _, h := range testLog.Handovers {
			if h.Time >= from && h.Time < to {
				hos = append(hos, h)
			}
		}
		if len(hos) == 0 {
			continue
		}
		fc := core.EvaluateEvents(slice(coldTicks), hos, time.Second).F1()
		fw := core.EvaluateEvents(slice(warmTicks), hos, time.Second).F1()
		t.Rows = append(t.Rows, []string{fmtF(from.Minutes(), 0) + "-" + fmtF(to.Minutes(), 0), fmtF(fc, 3), fmtF(fw, 3)})
	}
	t.Notes = append(t.Notes, "paper: bootstrapping lifts F1 to 0.8 within 1.5 min; cold start stays low for the first minutes")
	return t, nil
}

// frequentPatterns keeps the highest-support pattern per HO type.
func frequentPatterns(ps []core.Pattern) []core.Pattern {
	best := map[cellular.HOType]core.Pattern{}
	for _, p := range ps {
		if b, ok := best[p.HO]; !ok || p.Support > b.Support {
			best[p.HO] = p
		}
	}
	out := make([]core.Pattern, 0, len(best))
	for _, p := range best {
		out = append(out, p)
	}
	return out
}

// Fig18 reproduces the lead-time study: how much earlier handovers are
// predicted with the report predictor enabled (paper: ≈931 ms earlier on
// average, at a 1.2% accuracy cost).
func Fig18(opts Options) (Table, error) {
	opts = opts.withDefaults()
	// Lead-time forecasting works on smoothly-evolving signals; a low-band
	// downtown walk (D2's low-band side) is the forecastable regime, while
	// mmWave blockage onsets are abrupt and bound the lead to the TTT.
	log, err := opts.run(sim.Config{
		Carrier:      topology.OpX(),
		Arch:         cellular.ArchNSA,
		RouteKind:    geo.RouteCityLoop,
		RouteLengthM: 2100,
		Laps:         opts.scaleInt(10),
		SpeedMPS:     1.4,
		Seed:         opts.Seed + 72,
		TopoOpts:     topology.Options{CityDensity: 0.7, SkipMMWave: true},
	})
	if err != nil {
		return Table{}, err
	}
	mk := func(use bool) (*core.Prognos, error) {
		return core.New(core.Config{
			EventConfigs:       ran.EventConfigsFor(log.Carrier, cellular.ArchNSA),
			Arch:               cellular.ArchNSA,
			UseReportPredictor: use,
		})
	}
	with, err := mk(true)
	if err != nil {
		return Table{}, err
	}
	without, err := mk(false)
	if err != nil {
		return Table{}, err
	}
	wTicks := core.Replay(with, log)
	oTicks := core.Replay(without, log)

	classify := func(h cellular.HandoverEvent) string {
		if h.Type.Is5G() {
			return "5G"
		}
		return "LTE"
	}
	lead := func(ticks []core.TickPrediction, class string) []float64 {
		var hos []cellular.HandoverEvent
		for _, h := range log.Handovers {
			if classify(h) == class {
				hos = append(hos, h)
			}
		}
		var out []float64
		for _, d := range core.LeadTime(ticks, hos) {
			out = append(out, float64(d.Milliseconds()))
		}
		return out
	}

	t := Table{
		ID:     "fig18",
		Title:  "Prediction lead time with vs without the report predictor",
		Header: []string{"HO class", "variant", "n", "median lead (ms)", "p90 (ms)"},
	}
	var gains []float64
	for _, class := range []string{"LTE", "5G"} {
		lw := lead(wTicks, class)
		lo := lead(oTicks, class)
		if len(lw) == 0 || len(lo) == 0 {
			continue
		}
		t.Rows = append(t.Rows,
			[]string{class, "w/ report predictor", fmt.Sprint(len(lw)), fmtF(stats.Median(lw), 0), fmtF(stats.Percentile(lw, 90), 0)},
			[]string{class, "w/o report predictor", fmt.Sprint(len(lo)), fmtF(stats.Median(lo), 0), fmtF(stats.Percentile(lo, 90), 0)})
		gains = append(gains, stats.Median(lw)-stats.Median(lo))
	}
	if len(gains) > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("median lead-time gain: %.0f ms (paper ~931 ms average)", stats.Mean(gains)))
	}
	return t, nil
}

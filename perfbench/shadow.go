package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cellular"
	"repro/internal/core"
	"repro/internal/radio"
	"repro/internal/trace"
	"repro/internal/wire"
)

// shadow prices one pass's records layer by layer, in-process: the wire
// codec of the pass's framing in both directions, the Prognos methods the
// daemon calls per record, a second ReportPredictor and the radio
// forecasters fed the same samples. The daemon is a separate process, so
// this is how a traced run learns what each layer costs per op; whatever
// of the daemon's CPU these prices do not explain is the session loop
// (server.other_ns).
type shadow struct {
	framing wire.Framing

	prog     *core.Prognos
	report   *core.ReportPredictor
	preds    []core.PredictedReport
	forecast [4]*radio.LinearForecaster

	// Nanoseconds and calls per priced function.
	onSample, onReport, onHandover, predict, reportPredict, radioNS cost
	snapshot, restore                                               cost
	// Wire nanoseconds: requests (client encode, daemon decode) and
	// responses (daemon encode, client decode); bytes both ways.
	encReq, decReq, encResp, decResp int64
	bytes                            int64

	samples, matched int64
	// Sampled allocation count of Predict.
	allocs, allocCalls int64
	// mismatches counts predictions that differ from what the daemon
	// served for the same sample.
	mismatches int64

	out   bytes.Buffer
	bw    *bufio.Writer
	fw    *wire.FrameWriter
	enc   *json.Encoder
	in    bytes.Reader
	br    *bufio.Reader
	fr    *wire.FrameReader
	resps []wire.Response
	ms    runtime.MemStats
}

type cost struct{ ns, calls int64 }

func (c *cost) add(d time.Duration) { c.ns += int64(d); c.calls++ }

// per is the mean cost per call in ns (0 when never called).
func (c cost) per() float64 {
	if c.calls == 0 {
		return 0
	}
	return float64(c.ns) / float64(c.calls)
}

// allocEvery is how often Predict's allocations are counted: ReadMemStats
// stops the world, so only one call in allocEvery pays for it.
const allocEvery = 128

func newShadow(framing wire.Framing) *shadow {
	s := &shadow{framing: framing}
	s.bw = bufio.NewWriter(&s.out)
	s.fw = wire.NewFrameWriter(s.bw)
	s.enc = json.NewEncoder(s.bw)
	s.br = bufio.NewReaderSize(&s.in, 64<<10)
	s.fr = wire.NewFrameReader(s.br)
	return s
}

// begin starts pricing a session served by prog, a learner built from the
// event configs; the second ReportPredictor and the forecasters use the
// Prognos defaults (8-sample smoother, 1 s history and look-ahead).
func (s *shadow) begin(prog *core.Prognos, configs []cellular.EventConfig) {
	s.prog = prog
	s.report = core.NewReportPredictor(configs, 8, 20, 20, trace.SamplePeriod)
	for i := range s.forecast {
		s.forecast[i], _ = radio.NewLinearForecaster(20)
	}
}

// restoreInto prices Prognos.Restore, which the daemon calls to install a
// shipped session.
func (s *shadow) restoreInto(p *core.Prognos, snap core.Snapshot) {
	t := time.Now()
	p.Restore(snap)
	s.restore.add(time.Since(t))
}

// takeSnapshot prices Prognos.Snapshot, which the daemon calls every 512
// samples and when a session ends or parks.
func (s *shadow) takeSnapshot() core.Snapshot {
	t := time.Now()
	snap := s.prog.Snapshot()
	s.snapshot.add(time.Since(t))
	return snap
}

// window prices one pipelining window of steps whose responses started at
// sequence number seq0+1; served holds the prediction types the daemon
// answered for them (nil to skip the comparison).
func (s *shadow) window(st []step, seq0 int64, served []cellular.HOType) error {
	s.out.Reset()
	t := time.Now()
	for i := range st {
		if err := s.encodeStep(&st[i]); err != nil {
			return err
		}
	}
	if err := s.bw.Flush(); err != nil {
		return err
	}
	s.encReq += int64(time.Since(t))
	s.bytes += int64(s.out.Len())

	if err := s.decodeRecords(s.out.Bytes(), countRecords(st)); err != nil {
		return err
	}

	s.resps = s.resps[:0]
	for i := range st {
		r := s.priceCore(&st[i], seq0+int64(i)+1)
		if served != nil && served[i] != r.Type {
			s.mismatches++
		}
		s.resps = append(s.resps, r)
	}

	s.out.Reset()
	t = time.Now()
	for _, r := range s.resps {
		if err := s.encodeResponse(r); err != nil {
			return err
		}
	}
	if err := s.bw.Flush(); err != nil {
		return err
	}
	s.encResp += int64(time.Since(t))
	s.bytes += int64(s.out.Len())
	return s.decodeResponses(s.out.Bytes(), len(st))
}

func countRecords(st []step) int {
	n := 0
	for i := range st {
		n += len(st[i].reports) + len(st[i].hos) + 1
	}
	return n
}

func (s *shadow) encodeStep(st *step) error {
	for i := range st.reports {
		var err error
		if s.framing == wire.FramingBinary {
			err = s.fw.WriteReport(&st.reports[i])
		} else {
			err = s.enc.Encode(wire.Record{Report: &st.reports[i]})
		}
		if err != nil {
			return err
		}
	}
	for i := range st.hos {
		var err error
		if s.framing == wire.FramingBinary {
			err = s.fw.WriteHandover(&st.hos[i])
		} else {
			err = s.enc.Encode(wire.Record{HO: &st.hos[i]})
		}
		if err != nil {
			return err
		}
	}
	if s.framing == wire.FramingBinary {
		return s.fw.WriteSample(&st.sample)
	}
	return s.enc.Encode(wire.Record{Sample: &st.sample})
}

// decodeRecords decodes a window of n requests as the daemon's codec does.
func (s *shadow) decodeRecords(b []byte, n int) error {
	s.in.Reset(b)
	s.br.Reset(&s.in)
	t := time.Now()
	defer func() { s.decReq += int64(time.Since(t)) }()
	var (
		smp trace.Sample
		mr  cellular.MeasurementReport
		ho  cellular.HandoverEvent
		rec wire.Record
	)
	for i := 0; i < n; i++ {
		if s.framing == wire.FramingBinary {
			typ, p, err := s.fr.ReadFrame()
			if err != nil {
				return err
			}
			switch typ {
			case wire.FrameSample:
				err = wire.DecodeSample(p, &smp)
			case wire.FrameReport:
				err = wire.DecodeReport(p, &mr)
			case wire.FrameHO:
				err = wire.DecodeHandover(p, &ho)
			default:
				err = fmt.Errorf("unexpected frame 0x%02x", typ)
			}
			if err != nil {
				return err
			}
		} else {
			line, err := wire.ReadLine(s.br, wire.MaxLineBytes)
			if err != nil {
				return err
			}
			rec = wire.Record{}
			if err := json.Unmarshal(line, &rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// priceCore feeds one step to the learner, times each call, and builds the
// response the daemon would send.
func (s *shadow) priceCore(st *step, seq int64) wire.Response {
	for _, mr := range st.reports {
		t := time.Now()
		s.prog.OnReport(mr)
		s.onReport.add(time.Since(t))
	}
	for _, ho := range st.hos {
		t := time.Now()
		s.prog.OnHandover(ho)
		s.onHandover.add(time.Since(t))
	}
	t := time.Now()
	s.prog.OnSample(st.sample)
	s.onSample.add(time.Since(t))

	var pred core.Prediction
	if s.samples%allocEvery == 0 {
		runtime.ReadMemStats(&s.ms)
		before := s.ms.Mallocs
		pred = s.prog.Predict()
		runtime.ReadMemStats(&s.ms)
		s.allocs += int64(s.ms.Mallocs - before)
		s.allocCalls++
	} else {
		t = time.Now()
		pred = s.prog.Predict()
		s.predict.add(time.Since(t))
	}
	s.samples++
	if pred.PatternKey != "" {
		s.matched++
	}

	t = time.Now()
	s.report.Observe(st.sample)
	s.preds = s.report.PredictInto(s.preds[:0])
	s.reportPredict.add(time.Since(t))

	t = time.Now()
	for i, o := range [4]*trace.CellObs{&st.sample.ServingLTE, &st.sample.NeighborLTE, &st.sample.ServingNR, &st.sample.NeighborNR} {
		f := s.forecast[i]
		if !o.Valid {
			f.Reset()
			continue
		}
		f.Push(o.RSRP)
		f.Forecast(20)
	}
	s.radioNS.add(time.Since(t))

	return wire.Response{
		Time:       st.sample.Time,
		Type:       pred.Type,
		TypeName:   pred.Type.String(),
		Score:      pred.Score,
		Similarity: pred.Similarity,
		LeadMS:     pred.Lead.Milliseconds(),
		Seq:        seq,
	}
}

func (s *shadow) encodeResponse(r wire.Response) error {
	if s.framing == wire.FramingBinary {
		return s.fw.WriteResponse(r)
	}
	return s.enc.Encode(r)
}

// decodeResponses decodes a window of responses as the client does.
func (s *shadow) decodeResponses(b []byte, n int) error {
	s.in.Reset(b)
	s.br.Reset(&s.in)
	t := time.Now()
	defer func() { s.decResp += int64(time.Since(t)) }()
	for i := 0; i < n; i++ {
		var r wire.Response
		if s.framing == wire.FramingBinary {
			typ, p, err := s.fr.ReadFrame()
			if err != nil {
				return err
			}
			if typ != wire.FrameResponse {
				return fmt.Errorf("unexpected frame 0x%02x", typ)
			}
			if err := wire.DecodeResponse(p, &r); err != nil {
				return err
			}
		} else {
			line, err := wire.ReadLine(s.br, wire.MaxLineBytes)
			if err != nil {
				return err
			}
			var env struct {
				wire.Response
				Err      string `json:"error"`
				Redirect string `json:"redirect"`
			}
			if err := json.Unmarshal(line, &env); err != nil {
				return err
			}
			r = env.Response
		}
		if r.Seq != s.resps[i].Seq {
			return fmt.Errorf("shadow response seq %d, want %d", r.Seq, s.resps[i].Seq)
		}
	}
	return nil
}

// coreNS is the learner's cost of all calls so far, extrapolating the
// Predict calls whose allocations were counted instead of timed.
func (s *shadow) coreNS() float64 {
	predicts := s.predict.per() * float64(s.predict.calls+s.allocCalls)
	return float64(s.onSample.ns+s.onReport.ns+s.onHandover.ns) + predicts
}

// layers writes the shadow's per-op prices into m.
func (s *shadow) layers(m map[string]float64) {
	ops := float64(max(s.samples, 1))
	m["wire.encode_ns"] = float64(s.encReq+s.encResp) / ops
	m["wire.decode_ns"] = float64(s.decReq+s.decResp) / ops
	m["wire.bytes_per_op"] = float64(s.bytes) / ops
	m["core.on_sample_ns"] = s.onSample.per()
	m["core.on_report_ns"] = s.onReport.per()
	m["core.on_handover_ns"] = s.onHandover.per()
	m["core.predict_ns"] = s.predict.per()
	m["core.predict_allocs"] = float64(s.allocs) / float64(max(s.allocCalls, 1))
	m["core.report_predict_ns"] = s.reportPredict.per()
	m["core.match_share"] = float64(s.matched) / ops
	m["radio.forecast_ns"] = s.radioNS.per()
	if s.snapshot.calls > 0 {
		m["core.snapshot_us"] = s.snapshot.per() / 1e3
	}
	if s.restore.calls > 0 {
		m["core.restore_us"] = s.restore.per() / 1e3
	}
}

// daemonNS is what the shadow's prices say the daemon spent: decoding
// requests, the learner, snapshots and restores, encoding responses.
func (s *shadow) daemonNS() float64 {
	return float64(s.decReq+s.encResp+s.snapshot.ns+s.restore.ns) + s.coreNS()
}

package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/core"
	"repro/internal/ran"
	"repro/internal/sim"
	"repro/internal/topology"
)

// jsonlLine runs write against a fresh JSONLWriter and returns its output.
func jsonlLine(t testing.TB, write func(*JSONLWriter) error) ([]byte, error) {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	err := write(NewJSONLWriter(bw))
	if ferr := bw.Flush(); ferr != nil {
		t.Fatal(ferr)
	}
	return buf.Bytes(), err
}

// stdLine is what json.Encoder emits for v: the reference encoding.
func stdLine(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkRecordEncode requires the JSONLWriter bytes and error for rec's
// single payload to equal json.Encoder's.
func checkRecordEncode(t testing.TB, rec Record) {
	t.Helper()
	got, gotErr := jsonlLine(t, func(jw *JSONLWriter) error {
		switch {
		case rec.Sample != nil:
			return jw.WriteSample(rec.Sample)
		case rec.Report != nil:
			return jw.WriteReport(rec.Report)
		default:
			return jw.WriteHandover(rec.HO)
		}
	})
	want, wantErr := stdLine(rec)
	if !bytes.Equal(got, want) || errText(gotErr) != errText(wantErr) {
		t.Fatalf("record encode:\n got %q, %v\nwant %q, %v", got, gotErr, want, wantErr)
	}
}

// checkRecordDecode requires DecodeRecord to give line json.Unmarshal's
// result and error, and reports whether it took the canonical path (the
// payload landed in the decoder's scratch record).
func checkRecordDecode(t testing.TB, d *JSONLDecoder, line []byte) (canonical bool) {
	t.Helper()
	var got Record
	gotErr := d.DecodeRecord(line, &got)
	var want Record
	wantErr := json.Unmarshal(line, &want)
	if errText(gotErr) != errText(wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("decode %q:\n got %+v, %v\nwant %+v, %v", line, got, gotErr, want, wantErr)
	}
	return got.Sample == &d.sample || got.Report == &d.report || got.HO == &d.ho
}

func checkResponseEncode(t testing.TB, r Response) {
	t.Helper()
	got, gotErr := jsonlLine(t, func(jw *JSONLWriter) error { return jw.WriteResponse(r) })
	want, wantErr := stdLine(r)
	if !bytes.Equal(got, want) || errText(gotErr) != errText(wantErr) {
		t.Fatalf("response encode:\n got %q, %v\nwant %q, %v", got, gotErr, want, wantErr)
	}
}

// clientEnvelope is the shape a client decodes a response line into: the
// response, or the server's error/redirect line.
type clientEnvelope struct {
	Response
	Err      string `json:"error"`
	Redirect string `json:"redirect"`
}

// checkResponseDecode requires a canonical response line to decode to
// json.Unmarshal's result, both into a Response and into a client's
// error envelope (with no error set), and reports whether it was
// canonical.
func checkResponseDecode(t testing.TB, line []byte) bool {
	t.Helper()
	var got Response
	if !CanonicalResponse(line, &got) {
		return false
	}
	var want Response
	if err := json.Unmarshal(line, &want); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("canonical response %q:\n got %+v\nwant %+v, %v", line, got, want, err)
	}
	var env clientEnvelope
	if err := json.Unmarshal(line, &env); err != nil || env.Err != "" || env.Redirect != "" || env.Response != got {
		t.Fatalf("canonical response %q reads as envelope %+v, %v", line, env, err)
	}
	return true
}

// driveRecords simulates one short seeded drive and returns its records in
// stream order plus the response a Prognos instance gives to each sample.
func driveRecords(t *testing.T, carrier topology.CarrierProfile, arch cellular.Arch, seed int64) ([]Record, []Response) {
	t.Helper()
	log, err := sim.Run(sim.Config{Carrier: carrier, Arch: arch, RouteLengthM: 3000, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.New(core.Config{
		EventConfigs: ran.EventConfigsFor(carrier.Name, arch), Arch: arch, UseReportPredictor: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	var resps []Response
	ri, hi := 0, 0
	for i := range log.Samples {
		s := &log.Samples[i]
		for ; ri < len(log.Reports) && log.Reports[ri].Time <= s.Time; ri++ {
			recs = append(recs, Record{Report: &log.Reports[ri]})
			prog.OnReport(log.Reports[ri])
		}
		for ; hi < len(log.Handovers) && log.Handovers[hi].Time <= s.Time; hi++ {
			recs = append(recs, Record{HO: &log.Handovers[hi]})
			prog.OnHandover(log.Handovers[hi])
		}
		recs = append(recs, Record{Sample: s})
		prog.OnSample(*s)
		p := prog.Predict()
		resps = append(resps, Response{
			Time: s.Time, Type: p.Type, TypeName: p.Type.String(), Score: p.Score,
			Similarity: p.Similarity, LeadMS: p.Lead.Milliseconds(), Seq: int64(i + 1),
		})
	}
	return recs, resps
}

// TestJSONLCodecMatchesEncodingJSON drives every record and response of
// seeded OpX/OpY × NSA/SA drives (OpX offers no SA) through both codecs:
// the encoders must emit json.Encoder's exact bytes, and every line they
// emit must take the canonical decode path and decode to json.Unmarshal's
// record.
func TestJSONLCodecMatchesEncodingJSON(t *testing.T) {
	for _, carrier := range []topology.CarrierProfile{topology.OpX(), topology.OpY()} {
		for _, arch := range []cellular.Arch{cellular.ArchNSA, cellular.ArchSA} {
			if !carrier.Has(arch) {
				continue
			}
			t.Run(carrier.Name+"/"+arch.String(), func(t *testing.T) {
				recs, resps := driveRecords(t, carrier, arch, 7)
				var d JSONLDecoder
				var kinds [3]int
				for _, rec := range recs {
					checkRecordEncode(t, rec)
					line, _ := stdLine(rec)
					if !checkRecordDecode(t, &d, line[:len(line)-1]) {
						t.Fatalf("encoder output %q missed the canonical decode path", line)
					}
					switch {
					case rec.Sample != nil:
						kinds[0]++
					case rec.Report != nil:
						kinds[1]++
					default:
						kinds[2]++
					}
				}
				if kinds[0] == 0 || kinds[1] == 0 || kinds[2] == 0 {
					t.Fatalf("drive exercised samples/reports/handovers %v; want all three", kinds)
				}
				actionable := 0
				for _, r := range resps {
					checkResponseEncode(t, r)
					line, _ := stdLine(r)
					if !checkResponseDecode(t, line[:len(line)-1]) {
						t.Fatalf("encoder output %q missed the canonical decode path", line)
					}
					if r.Type != cellular.HONone {
						actionable++
					}
				}
				if actionable == 0 {
					t.Fatal("drive produced no actionable prediction")
				}
			})
		}
	}
}

// TestJSONLEncodeEdgeValues pins the float formatting switch, the
// omitempty fields and the json.Encoder fallbacks.
func TestJSONLEncodeEdgeValues(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.99999e-7, 1e-7, -1e-7, 1.5e-10,
		1e20, 1e21, -1e21, 123456789012345678901234.0, 5e-324, math.MaxFloat64,
		-math.SmallestNonzeroFloat64, 1e-100, 1.2345e-300, 29.000000000000004, -95.5,
	}
	for _, f := range floats {
		s := testSample()
		s.X, s.ServingNR.SINR, s.TputMbps = f, -f, f/3
		checkRecordEncode(t, Record{Sample: &s})
		checkResponseEncode(t, Response{Score: f, Similarity: f * 7, Seq: 1})
	}
	quiet := testSample()
	quiet.InHO, quiet.HOType = false, cellular.HONone
	checkRecordEncode(t, Record{Sample: &quiet})
	checkResponseEncode(t, Response{TypeName: "NONE"}) // seq 0 is omitted

	// Values json.Encoder refuses or escapes go to json.Encoder itself.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s := testSample()
		s.ServingLTE.RSRQ = f
		checkRecordEncode(t, Record{Sample: &s})
		mr := cellular.MeasurementReport{NeighborRSRP: f}
		checkRecordEncode(t, Record{Report: &mr})
		ho := cellular.HandoverEvent{DistanceM: f}
		checkRecordEncode(t, Record{HO: &ho})
		checkResponseEncode(t, Response{Similarity: f})
	}
	for _, name := range []string{"a<b", "x&y", `q"`, `back\slash`, "tab\t", "é", "\u2028", "\xff", "del\x7f", ""} {
		ho := cellular.HandoverEvent{SourceCell: name, TargetCell: "NR-7"}
		checkRecordEncode(t, Record{HO: &ho})
		checkResponseEncode(t, Response{TypeName: name})
	}
}

func testReport() cellular.MeasurementReport {
	return cellular.MeasurementReport{
		Time: 3 * time.Second, Event: cellular.EventA3, Tech: cellular.TechNR,
		ServingPCI: 12, NeighborPCI: 40, ServingRSRP: -101.5, NeighborRSRP: -97.25,
		Serving: cellular.RRS{RSRP: -101.5, RSRQ: -12, SINR: 3.5},
	}
}

func testHandover() cellular.HandoverEvent {
	return cellular.HandoverEvent{
		Time: 4 * time.Second, Type: cellular.HOSCGM, Arch: cellular.ArchNSA, Band: cellular.BandMMWave,
		SourcePCI: 12, TargetPCI: 40, SourceCell: "NR-12", TargetCell: "NR-40",
		T1: 80 * time.Millisecond, T2: 30 * time.Millisecond, CoLocated: true, DistanceM: 1234.5,
		Signaling: cellular.SignalingCount{RRC: 4, MAC: 2, PHY: 3},
	}
}

func testResponse() Response {
	return Response{
		Time: 5 * time.Second, Type: cellular.HOSCGA, TypeName: "SCGA",
		Score: 0.25, Similarity: 0.875, LeadMS: 300, Seq: 17,
	}
}

// TestJSONLDecodeNumbers sweeps number literals of every shape through
// the canonical report line — float fields and int fields — and requires
// json.Unmarshal's exact result or error for each, and the canonical
// path for every literal encoding/json decodes without error.
func TestJSONLDecodeNumbers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var lits []string
	for i := 0; i < 1000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		short := float64(rng.Int63n(2_000_000_000)-1_000_000_000) / math.Pow(10, float64(rng.Intn(12)))
		for _, v := range []float64{f, short, rng.NormFloat64() * 100} {
			lits = append(lits,
				strconv.FormatFloat(v, 'f', -1, 64), strconv.FormatFloat(v, 'e', -1, 64),
				strconv.FormatFloat(v, 'f', rng.Intn(20), 64), strconv.FormatFloat(v, 'E', rng.Intn(20), 64),
				strconv.FormatFloat(v, 'g', 17, 64))
		}
		lits = append(lits, strconv.FormatInt(rng.Int63()>>rng.Intn(63), 10), strconv.FormatInt(-rng.Int63(), 10))
	}
	lits = append(lits, "0", "-0", "0.0", "-0.0", "1e400", "-1e400", "1e-400", "4.9e-324", "2.4703282292062328e-324",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"123456789012345678901234567890", "0.000000000000000000000000001", "1E+2", "1e-0", "00", "-", "1.", ".5",
		"+1", "0x10", "1_0", "Inf", "NaN", "1e", "1e+", "--1", "1.5e3.2")
	var d JSONLDecoder
	canonical := 0
	for _, lit := range lits {
		for _, line := range []string{
			`{"report":{"Time":0,"Event":0,"Tech":0,"ServingPCI":0,"NeighborPCI":0,"ServingRSRP":` + lit +
				`,"NeighborRSRP":0,"Serving":{"RSRP":0,"RSRQ":0,"SINR":0}}}`,
			`{"report":{"Time":` + lit + `,"Event":0,"Tech":0,"ServingPCI":` + lit +
				`,"NeighborPCI":0,"ServingRSRP":0,"NeighborRSRP":0,"Serving":{"RSRP":0,"RSRQ":0,"SINR":0}}}`,
		} {
			var want Record
			ok := json.Unmarshal([]byte(line), &want) == nil
			if checkRecordDecode(t, &d, []byte(line)) {
				canonical++
			} else if ok {
				t.Fatalf("%q decodes cleanly but missed the canonical path", line)
			}
		}
	}
	if canonical < len(lits) {
		t.Fatalf("only %d of %d literals took the canonical path", canonical, 2*len(lits))
	}
}

// jsonlSeedLines are canonical lines and near-misses of each shape: the
// seed corpus of the differential fuzzers.
func jsonlSeedLines(t testing.TB) [][]byte {
	s, mr, ho := testSample(), testReport(), testHandover()
	var lines [][]byte
	for _, v := range []any{
		Record{Sample: &s}, Record{Report: &mr}, Record{HO: &ho},
		testResponse(), Response{TypeName: "NONE", Score: 1},
	} {
		b, err := stdLine(v)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, b[:len(b)-1])
	}
	return append(lines,
		[]byte(`{"sample": {"t":1}}`),
		[]byte(`{"Sample":{"t":1}}`),
		[]byte(`{"sample":null}`),
		[]byte(`{"ho":{"Time":1,"Type":0,"Arch":0,"Band":0,"SourcePCI":0,"TargetPCI":0,"SourceCell":"a\u0041","TargetCell":"","T1":0,"T2":0,"CoLocated":false,"DistanceM":0,"Signaling":{"RRC":0,"MAC":0,"PHY":0}}}`),
		[]byte(`{"report":{"Time":1.0,"Event":0,"Tech":0,"ServingPCI":0,"NeighborPCI":0,"ServingRSRP":0,"NeighborRSRP":0,"Serving":{"RSRP":0,"RSRQ":0,"SINR":0}}}`),
		[]byte(`{"report":{"Time":99999999999999999999,"Event":0,"Tech":0,"ServingPCI":0,"NeighborPCI":0,"ServingRSRP":1e400,"NeighborRSRP":0,"Serving":{"RSRP":0,"RSRQ":0,"SINR":0}}}`),
		[]byte(`{"t":01,"type":0,"type_name":"NONE","score":1,"similarity":0,"lead_ms":0}`),
		[]byte(`{"t":1,"type":0,"type_name":"NONE","score":1,"similarity":0,"lead_ms":0} `),
		[]byte(`{"t":1,"type":0,"type_name":"NONE","score":-,"similarity":0,"lead_ms":0}`),
		[]byte(`{"error":"server: session limit reached","redirect":"127.0.0.1:7001"}`),
		[]byte(`{"sample":{}}{}`),
		[]byte(``),
	)
}

// FuzzJSONLRecord is the differential contract of the record codec on
// arbitrary input: DecodeRecord returns json.Unmarshal's record and error
// text, and any single-payload record that decodes re-encodes to
// json.Encoder's exact bytes.
func FuzzJSONLRecord(f *testing.F) {
	for _, line := range jsonlSeedLines(f) {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var d JSONLDecoder
		checkRecordDecode(t, &d, line)
		var rec Record
		if json.Unmarshal(line, &rec) != nil {
			return
		}
		n := 0
		for _, set := range []bool{rec.Sample != nil, rec.Report != nil, rec.HO != nil} {
			if set {
				n++
			}
		}
		if n == 1 {
			checkRecordEncode(t, rec)
		}
	})
}

// FuzzJSONLResponse is the response half: a line CanonicalResponse
// accepts decodes to json.Unmarshal's response (and reads as a response,
// not an error, in a client's envelope); any response value encodes to
// json.Encoder's exact bytes and error.
func FuzzJSONLResponse(f *testing.F) {
	for _, line := range jsonlSeedLines(f) {
		f.Add(line, int64(1250), 3, "SCGM", 0.5, 1e-9, int64(40), int64(9))
	}
	f.Add([]byte{}, int64(-1), -4, "a<b", math.NaN(), math.Inf(1), int64(0), int64(0))
	f.Fuzz(func(t *testing.T, line []byte, tm int64, typ int, name string, score, sim float64, lead, seq int64) {
		checkResponseDecode(t, line)
		checkResponseEncode(t, Response{
			Time: time.Duration(tm), Type: cellular.HOType(typ), TypeName: name,
			Score: score, Similarity: sim, LeadMS: lead, Seq: seq,
		})
	})
}

// TestJSONLHotPathAllocs pins the steady-state allocation contract:
// decoding a sample line, and encoding samples and responses, reuse the
// codec's scratch.
func TestJSONLHotPathAllocs(t *testing.T) {
	s := testSample()
	line, _ := stdLine(Record{Sample: &s})
	line = line[:len(line)-1]
	var d JSONLDecoder
	var rec Record
	if allocs := testing.AllocsPerRun(200, func() {
		if err := d.DecodeRecord(line, &rec); err != nil || rec.Sample != &d.sample {
			t.Fatalf("sample line missed the canonical path: %v", err)
		}
	}); allocs > 0 {
		t.Errorf("DecodeRecord(sample) allocates %.1f/op", allocs)
	}

	var buf bytes.Buffer
	bw := bufio.NewWriterSize(&buf, 1<<16)
	jw := NewJSONLWriter(bw)
	r := Response{Time: s.Time, Type: cellular.HOSCGC, TypeName: "SCGC", Score: 0.3, Similarity: 0.9, LeadMS: 250, Seq: 12}
	for name, write := range map[string]func() error{
		"WriteResponse": func() error { return jw.WriteResponse(r) },
		"WriteSample":   func() error { return jw.WriteSample(&s) },
	} {
		if allocs := testing.AllocsPerRun(200, func() {
			buf.Reset()
			bw.Reset(&buf)
			if err := write(); err != nil {
				t.Fatal(err)
			}
		}); allocs > 0 {
			t.Errorf("%s allocates %.1f/op", name, allocs)
		}
	}

	respLine, _ := stdLine(r)
	respLine = respLine[:len(respLine)-1]
	var out Response
	if allocs := testing.AllocsPerRun(200, func() {
		if !CanonicalResponse(respLine, &out) {
			t.Fatal("response line missed the canonical path")
		}
	}); allocs > 0 {
		t.Errorf("CanonicalResponse allocates %.1f/op", allocs)
	}
}

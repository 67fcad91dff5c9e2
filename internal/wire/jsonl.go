// JSONL record codec: the hot record shapes of docs/PROTOCOL.md §JSONL
// framing — a sample, report or handover record and a response — encoded
// and decoded without reflection.
//
// encoding/json stays the specification. The encoders append exactly the
// bytes json.Encoder.Encode emits, trailing newline included, and hand
// anything they cannot reproduce (a NaN or infinite float, a string that
// would need escaping) to json.Encoder itself. The decoders accept only the
// canonical form those encoders emit — every key present, in struct-field
// order, no whitespace, plain ASCII strings, RFC 8259 numbers — and leave
// every other line (whitespace, unknown or case-variant keys, null,
// escapes, a non-integer literal in an int field, trailing bytes) to
// json.Unmarshal, so any input decodes to exactly what, and fails with
// exactly the error, encoding/json gives it.

package wire

import (
	"bufio"
	"encoding/json"
	"math"
	"strconv"
	"time"

	"repro/internal/cellular"
	"repro/internal/trace"
)

// JSONLWriter encodes protocol records as JSONL lines onto a buffered
// writer: the JSONL twin of FrameWriter. It reuses one scratch buffer, so
// steady-state record and response writes allocate nothing. Not safe for
// concurrent use; callers flush the underlying writer themselves.
type JSONLWriter struct {
	w   *bufio.Writer
	enc *json.Encoder
	e   lineEncoder
}

// NewJSONLWriter returns a JSONLWriter emitting onto w.
func NewJSONLWriter(w *bufio.Writer) *JSONLWriter {
	return &JSONLWriter{w: w, enc: json.NewEncoder(w), e: lineEncoder{b: make([]byte, 0, 1024)}}
}

// Encode writes v as one line with encoding/json: the path for hellos,
// acknowledgements and error lines, which are not per-sample traffic.
func (jw *JSONLWriter) Encode(v any) error { return jw.enc.Encode(v) }

// WriteSample emits one {"sample":...} record line.
func (jw *JSONLWriter) WriteSample(s *trace.Sample) error {
	jw.e.begin(`{"sample":`)
	jw.e.sample(s)
	if !jw.e.end("}\n") {
		v := *s // a copy, so s itself never escapes on the hot path
		return jw.enc.Encode(Record{Sample: &v})
	}
	return jw.writeLine()
}

// WriteReport emits one {"report":...} record line.
func (jw *JSONLWriter) WriteReport(mr *cellular.MeasurementReport) error {
	jw.e.begin(`{"report":`)
	jw.e.report(mr)
	if !jw.e.end("}\n") {
		v := *mr
		return jw.enc.Encode(Record{Report: &v})
	}
	return jw.writeLine()
}

// WriteHandover emits one {"ho":...} record line.
func (jw *JSONLWriter) WriteHandover(ho *cellular.HandoverEvent) error {
	jw.e.begin(`{"ho":`)
	jw.e.handover(ho)
	if !jw.e.end("}\n") {
		v := *ho
		return jw.enc.Encode(Record{HO: &v})
	}
	return jw.writeLine()
}

// WriteResponse emits one prediction line.
func (jw *JSONLWriter) WriteResponse(r Response) error {
	jw.e.begin("")
	jw.e.response(&r)
	if !jw.e.end("\n") {
		return jw.enc.Encode(r)
	}
	return jw.writeLine()
}

func (jw *JSONLWriter) writeLine() error {
	_, err := jw.w.Write(jw.e.b)
	return err
}

// lineEncoder appends one canonical line. ok drops to false at the first
// value encoding/json would encode differently (or refuse), and the
// caller then hands the whole record to json.Encoder instead.
type lineEncoder struct {
	b  []byte
	ok bool
}

func (e *lineEncoder) begin(prefix string) {
	e.b = append(e.b[:0], prefix...)
	e.ok = true
}

// end appends suffix and reports whether the line is canonical.
func (e *lineEncoder) end(suffix string) bool {
	e.b = append(e.b, suffix...)
	return e.ok
}

func (e *lineEncoder) int(key string, v int64) {
	e.b = strconv.AppendInt(append(e.b, key...), v, 10)
}

// float appends f exactly as encoding/json encodes a float64: ES6-style
// 'f' formatting, switching to 'e' outside [1e-6, 1e21), with a
// single-digit negative exponent's leading zero removed.
func (e *lineEncoder) float(key string, f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.ok = false // json.Encoder reports UnsupportedValueError
		return
	}
	b := append(e.b, key...)
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	e.b = b
}

func (e *lineEncoder) bool(key string, v bool) {
	e.b = append(e.b, key...)
	e.b = strconv.AppendBool(e.b, v)
}

// str appends s quoted when it needs no escaping under json.Encoder's
// defaults: printable ASCII without '"', '\\' or the HTML-escaped '<',
// '>' and '&'.
func (e *lineEncoder) str(key, s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			e.ok = false
			return
		}
	}
	e.b = append(append(e.b, key...), '"')
	e.b = append(append(e.b, s...), '"')
}

func (e *lineEncoder) cellObs(key string, o *trace.CellObs) {
	e.b = append(e.b, key...)
	e.int(`{"pci":`, int64(o.PCI))
	e.int(`,"tech":`, int64(o.Tech))
	e.int(`,"band":`, int64(o.Band))
	e.float(`,"rsrp":`, o.RSRP)
	e.float(`,"rsrq":`, o.RSRQ)
	e.float(`,"sinr":`, o.SINR)
	e.bool(`,"valid":`, o.Valid)
	e.b = append(e.b, '}')
}

func (e *lineEncoder) sample(s *trace.Sample) {
	e.int(`{"t":`, int64(s.Time))
	e.float(`,"x":`, s.X)
	e.float(`,"y":`, s.Y)
	e.float(`,"odo":`, s.OdometerM)
	e.float(`,"speed":`, s.SpeedMPS)
	e.int(`,"arch":`, int64(s.Arch))
	e.cellObs(`,"lte":`, &s.ServingLTE)
	e.cellObs(`,"nr":`, &s.ServingNR)
	e.cellObs(`,"nlte":`, &s.NeighborLTE)
	e.cellObs(`,"nnr":`, &s.NeighborNR)
	if s.InHO { // omitempty
		e.bool(`,"inho":`, true)
	}
	if s.HOType != 0 { // omitempty
		e.int(`,"hotype":`, int64(s.HOType))
	}
	e.float(`,"tput":`, s.TputMbps)
	e.b = append(e.b, '}')
}

func (e *lineEncoder) report(mr *cellular.MeasurementReport) {
	e.int(`{"Time":`, int64(mr.Time))
	e.int(`,"Event":`, int64(mr.Event))
	e.int(`,"Tech":`, int64(mr.Tech))
	e.int(`,"ServingPCI":`, int64(mr.ServingPCI))
	e.int(`,"NeighborPCI":`, int64(mr.NeighborPCI))
	e.float(`,"ServingRSRP":`, mr.ServingRSRP)
	e.float(`,"NeighborRSRP":`, mr.NeighborRSRP)
	e.float(`,"Serving":{"RSRP":`, mr.Serving.RSRP)
	e.float(`,"RSRQ":`, mr.Serving.RSRQ)
	e.float(`,"SINR":`, mr.Serving.SINR)
	e.b = append(e.b, "}}"...)
}

func (e *lineEncoder) handover(ho *cellular.HandoverEvent) {
	e.int(`{"Time":`, int64(ho.Time))
	e.int(`,"Type":`, int64(ho.Type))
	e.int(`,"Arch":`, int64(ho.Arch))
	e.int(`,"Band":`, int64(ho.Band))
	e.int(`,"SourcePCI":`, int64(ho.SourcePCI))
	e.int(`,"TargetPCI":`, int64(ho.TargetPCI))
	e.str(`,"SourceCell":`, ho.SourceCell)
	e.str(`,"TargetCell":`, ho.TargetCell)
	e.int(`,"T1":`, int64(ho.T1))
	e.int(`,"T2":`, int64(ho.T2))
	e.bool(`,"CoLocated":`, ho.CoLocated)
	e.float(`,"DistanceM":`, ho.DistanceM)
	e.int(`,"Signaling":{"RRC":`, int64(ho.Signaling.RRC))
	e.int(`,"MAC":`, int64(ho.Signaling.MAC))
	e.int(`,"PHY":`, int64(ho.Signaling.PHY))
	e.b = append(e.b, "}}"...)
}

func (e *lineEncoder) response(r *Response) {
	e.int(`{"t":`, int64(r.Time))
	e.int(`,"type":`, int64(r.Type))
	e.str(`,"type_name":`, r.TypeName)
	e.float(`,"score":`, r.Score)
	e.float(`,"similarity":`, r.Similarity)
	e.int(`,"lead_ms":`, r.LeadMS)
	if r.Seq != 0 { // omitempty
		e.int(`,"seq":`, r.Seq)
	}
	e.b = append(e.b, '}')
}

// JSONLDecoder decodes JSONL record lines: the JSONL twin of the binary
// Decode* functions. Canonical lines decode into the decoder's own
// scratch records, which the next DecodeRecord overwrites, so steady-state
// decoding allocates nothing; the zero value is ready to use. Not safe for
// concurrent use.
type JSONLDecoder struct {
	sample trace.Sample
	report cellular.MeasurementReport
	ho     cellular.HandoverEvent
}

// DecodeRecord decodes one record line (without its line ending) into
// rec, with exactly the result and error of json.Unmarshal(line, rec) on a
// zero rec. The payload rec points at is valid until the next call.
func (d *JSONLDecoder) DecodeRecord(line []byte, rec *Record) error {
	s := lineScanner{b: line, ok: true}
	switch {
	case s.opt(`{"sample":`):
		s.sample(&d.sample)
		*rec = Record{Sample: &d.sample}
	case s.opt(`{"report":`):
		s.report(&d.report)
		*rec = Record{Report: &d.report}
	case s.opt(`{"ho":`):
		s.handover(&d.ho)
		*rec = Record{HO: &d.ho}
	default:
		s.ok = false
	}
	s.lit("}")
	if s.done() {
		return nil
	}
	*rec = Record{}
	return json.Unmarshal(line, rec)
}

// CanonicalResponse decodes a response line in the canonical form into r
// and reports true, r then holding exactly what json.Unmarshal would
// decode. For any other line — an error or redirect envelope included —
// it reports false, leaving r unspecified: the caller decodes the line
// with encoding/json.
func CanonicalResponse(line []byte, r *Response) bool {
	s := lineScanner{b: line, ok: true}
	s.response(r)
	return s.done()
}

// lineScanner matches one line against the canonical form. ok drops to
// false at the first byte outside it and stays false; the fields decoded
// so far are then garbage and the caller falls back to json.Unmarshal.
type lineScanner struct {
	b  []byte
	i  int
	ok bool
}

// done reports whether the whole line matched.
func (s *lineScanner) done() bool { return s.ok && s.i == len(s.b) }

// opt consumes lit when the line continues with it.
func (s *lineScanner) opt(lit string) bool {
	if s.ok && len(s.b)-s.i >= len(lit) && string(s.b[s.i:s.i+len(lit)]) == lit {
		s.i += len(lit)
		return true
	}
	return false
}

// lit consumes lit, which the line must continue with.
func (s *lineScanner) lit(lit string) {
	if !s.opt(lit) {
		s.ok = false
	}
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digits advances j past a run of digits and reports whether there was
// at least one.
func (s *lineScanner) digits(j *int) bool {
	k := *j
	for *j < len(s.b) && isDigit(s.b[*j]) {
		*j++
	}
	return *j > k
}

// number consumes one RFC 8259 number and reports whether it is an
// integer literal (no fraction, no exponent). The grammar check comes
// first because strconv also accepts forms JSON does not ("Inf", "0x1p3",
// "1_0", "+1", "01").
func (s *lineScanner) number() (lit []byte, integer bool) {
	if !s.ok {
		return nil, false
	}
	b, j := s.b, s.i
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case !s.digits(&j):
		s.ok = false
		return nil, false
	}
	integer = true
	if j < len(b) && b[j] == '.' {
		integer = false
		j++
		if !s.digits(&j) {
			s.ok = false
			return nil, false
		}
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		integer = false
		j++
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		if !s.digits(&j) {
			s.ok = false
			return nil, false
		}
	}
	lit, s.i = b[s.i:j], j
	return lit, integer
}

// int64 consumes key and an integer literal, as encoding/json decodes it
// into an int64 field: strconv.ParseInt, base 10, 64 bits.
func (s *lineScanner) int64(key string) int64 {
	s.lit(key)
	lit, integer := s.number()
	if !integer {
		s.ok = false // a fraction or exponent is a type error in an int field
		return 0
	}
	ds, neg := lit, lit[0] == '-'
	if neg {
		ds = lit[1:]
	}
	if len(ds) > 18 { // may overflow: let strconv range-check it
		v, err := strconv.ParseInt(string(lit), 10, 64)
		if err != nil {
			s.ok = false
		}
		return v
	}
	var v int64
	for _, c := range ds {
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return v
}

// int consumes key and an integer literal that must also fit an int.
func (s *lineScanner) int(key string) int {
	v := s.int64(key)
	if int64(int(v)) != v {
		s.ok = false
	}
	return int(v)
}

// float consumes key and a number, as encoding/json decodes it into a
// float64 field: strconv.ParseFloat, 64 bits, out-of-range an error.
func (s *lineScanner) float(key string) float64 {
	s.lit(key)
	lit, _ := s.number()
	if !s.ok {
		return 0
	}
	if f, ok := exactFloat(lit); ok {
		return f
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		s.ok = false
	}
	return f
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// exactFloat converts a short plain decimal literal — at most 15 digits,
// no exponent — the way strconv.ParseFloat's own exact path does: the
// digits and the power of ten are both exact float64s, so one correctly
// rounded division gives the correctly rounded result. Other literals
// report false.
func exactFloat(lit []byte) (float64, bool) {
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	var m uint64
	nd, point := 0, -1
	for i, c := range lit {
		switch {
		case isDigit(c):
			m = m*10 + uint64(c-'0')
			nd++
		case c == '.':
			point = i
		default:
			return 0, false // an exponent
		}
	}
	if nd > 15 {
		return 0, false
	}
	f := float64(m)
	if point >= 0 {
		f /= pow10[len(lit)-point-1]
	}
	if neg {
		f = -f
	}
	return f, true
}

func (s *lineScanner) bool(key string) bool {
	s.lit(key)
	switch {
	case s.opt("true"):
		return true
	case !s.opt("false"):
		s.ok = false
	}
	return false
}

// str consumes key and a string of printable ASCII without escapes (the
// only strings that decode to their own bytes). It returns prev when the
// bytes equal it, so a repeated value costs no allocation.
func (s *lineScanner) str(key, prev string) string {
	s.lit(key)
	s.lit(`"`)
	if !s.ok {
		return prev
	}
	j := s.i
	for ; j < len(s.b) && s.b[j] != '"'; j++ {
		if c := s.b[j]; c < 0x20 || c >= 0x80 || c == '\\' {
			s.ok = false
			return prev
		}
	}
	if j == len(s.b) {
		s.ok = false
		return prev
	}
	v := s.b[s.i:j]
	s.i = j + 1
	if string(v) == prev {
		return prev
	}
	return string(v)
}

func (s *lineScanner) cellObs(key string, o *trace.CellObs) {
	s.lit(key)
	o.PCI = cellular.PCI(s.int(`{"pci":`))
	o.Tech = cellular.Tech(s.int(`,"tech":`))
	o.Band = cellular.Band(s.int(`,"band":`))
	o.RSRP = s.float(`,"rsrp":`)
	o.RSRQ = s.float(`,"rsrq":`)
	o.SINR = s.float(`,"sinr":`)
	o.Valid = s.bool(`,"valid":`)
	s.lit("}")
}

func (s *lineScanner) sample(smp *trace.Sample) {
	smp.Time = time.Duration(s.int64(`{"t":`))
	smp.X = s.float(`,"x":`)
	smp.Y = s.float(`,"y":`)
	smp.OdometerM = s.float(`,"odo":`)
	smp.SpeedMPS = s.float(`,"speed":`)
	smp.Arch = cellular.Arch(s.int(`,"arch":`))
	s.cellObs(`,"lte":`, &smp.ServingLTE)
	s.cellObs(`,"nr":`, &smp.ServingNR)
	s.cellObs(`,"nlte":`, &smp.NeighborLTE)
	s.cellObs(`,"nnr":`, &smp.NeighborNR)
	smp.InHO, smp.HOType = false, 0 // omitempty: absent means zero
	if s.opt(`,"inho":`) {
		smp.InHO = s.bool("")
	}
	if s.opt(`,"hotype":`) {
		smp.HOType = cellular.HOType(s.int(""))
	}
	smp.TputMbps = s.float(`,"tput":`)
	s.lit("}")
}

func (s *lineScanner) report(mr *cellular.MeasurementReport) {
	mr.Time = time.Duration(s.int64(`{"Time":`))
	mr.Event = cellular.EventType(s.int(`,"Event":`))
	mr.Tech = cellular.Tech(s.int(`,"Tech":`))
	mr.ServingPCI = cellular.PCI(s.int(`,"ServingPCI":`))
	mr.NeighborPCI = cellular.PCI(s.int(`,"NeighborPCI":`))
	mr.ServingRSRP = s.float(`,"ServingRSRP":`)
	mr.NeighborRSRP = s.float(`,"NeighborRSRP":`)
	mr.Serving.RSRP = s.float(`,"Serving":{"RSRP":`)
	mr.Serving.RSRQ = s.float(`,"RSRQ":`)
	mr.Serving.SINR = s.float(`,"SINR":`)
	s.lit("}}")
}

func (s *lineScanner) handover(ho *cellular.HandoverEvent) {
	ho.Time = time.Duration(s.int64(`{"Time":`))
	ho.Type = cellular.HOType(s.int(`,"Type":`))
	ho.Arch = cellular.Arch(s.int(`,"Arch":`))
	ho.Band = cellular.Band(s.int(`,"Band":`))
	ho.SourcePCI = cellular.PCI(s.int(`,"SourcePCI":`))
	ho.TargetPCI = cellular.PCI(s.int(`,"TargetPCI":`))
	ho.SourceCell = s.str(`,"SourceCell":`, ho.SourceCell)
	ho.TargetCell = s.str(`,"TargetCell":`, ho.TargetCell)
	ho.T1 = time.Duration(s.int64(`,"T1":`))
	ho.T2 = time.Duration(s.int64(`,"T2":`))
	ho.CoLocated = s.bool(`,"CoLocated":`)
	ho.DistanceM = s.float(`,"DistanceM":`)
	ho.Signaling.RRC = s.int(`,"Signaling":{"RRC":`)
	ho.Signaling.MAC = s.int(`,"MAC":`)
	ho.Signaling.PHY = s.int(`,"PHY":`)
	s.lit("}}")
}

func (s *lineScanner) response(r *Response) {
	r.Time = time.Duration(s.int64(`{"t":`))
	r.Type = cellular.HOType(s.int(`,"type":`))
	// Predictions carry their type's own name: reuse the constant.
	r.TypeName = s.str(`,"type_name":`, r.Type.String())
	r.Score = s.float(`,"score":`)
	r.Similarity = s.float(`,"similarity":`)
	r.LeadMS = s.int64(`,"lead_ms":`)
	r.Seq = 0 // omitempty: absent means zero
	if s.opt(`,"seq":`) {
		r.Seq = s.int64("")
	}
	s.lit("}")
}

package wire

import (
	"bufio"
	"bytes"
	"io"
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/trace"
)

// Per-layer costs of the two framings, one record shape at a time: what
// a server pays to decode each client record and encode each response,
// and what a client pays for the other direction. Run with
//
//	go test -run '^$' -bench 'JSONL|Binary' ./internal/wire

// benchSample is one radio sample as a simulated drive logs it: floats at
// full precision where the radio model computes them, exact zeros and
// short decimals where it does not.
func benchSample() trace.Sample {
	return trace.Sample{
		Time: 103400 * time.Millisecond, X: 2995.365736036055, Y: 105.93491829275075,
		OdometerM: 2998.5999999999262, SpeedMPS: 29, Arch: cellular.ArchNSA,
		ServingLTE: trace.CellObs{PCI: 7, Tech: cellular.TechLTE, Band: cellular.BandLow,
			RSRP: -112.00303116109359, RSRQ: -7.060242492887487, SINR: -12.04247732096051, Valid: true},
		ServingNR: trace.CellObs{PCI: 504, Tech: cellular.TechNR, Band: cellular.BandLow,
			RSRP: -101.45139488347534, RSRQ: -4.716111590678027, SINR: -1.4513948834753525, Valid: true},
		NeighborLTE: trace.CellObs{PCI: 8, Tech: cellular.TechLTE, Band: cellular.BandLow, RSRP: -120.39805779974576, Valid: true},
		NeighborNR:  trace.CellObs{PCI: 505, Tech: cellular.TechNR, Band: cellular.BandLow, RSRP: -125.03326739545639, Valid: true},
		TputMbps:    11.684651577344844,
	}
}

// benchLine is rec's JSONL line without its newline.
func benchLine(b *testing.B, write func(*JSONLWriter) error) []byte {
	line, err := jsonlLine(b, write)
	if err != nil {
		b.Fatal(err)
	}
	return line[:len(line)-1]
}

// benchPayload is one binary frame's payload.
func benchPayload(b *testing.B, write func(*FrameWriter) error) []byte {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := write(NewFrameWriter(bw)); err != nil {
		b.Fatal(err)
	}
	bw.Flush()
	return buf.Bytes()[frameHeaderLen:]
}

func benchJSONLEncode(b *testing.B, write func(*JSONLWriter) error) {
	jw := NewJSONLWriter(bufio.NewWriterSize(io.Discard, 64<<10))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := write(jw); err != nil {
			b.Fatal(err)
		}
	}
}

func benchBinaryEncode(b *testing.B, write func(*FrameWriter) error) {
	fw := NewFrameWriter(bufio.NewWriterSize(io.Discard, 64<<10))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := write(fw); err != nil {
			b.Fatal(err)
		}
	}
}

func benchJSONLDecode(b *testing.B, write func(*JSONLWriter) error) {
	line := benchLine(b, write)
	var d JSONLDecoder
	var rec Record
	b.SetBytes(int64(len(line)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.DecodeRecord(line, &rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJSONLEncodeSample(b *testing.B) {
	s := benchSample()
	benchJSONLEncode(b, func(jw *JSONLWriter) error { return jw.WriteSample(&s) })
}

func BenchmarkJSONLEncodeReport(b *testing.B) {
	mr := testReport()
	benchJSONLEncode(b, func(jw *JSONLWriter) error { return jw.WriteReport(&mr) })
}

func BenchmarkJSONLEncodeHO(b *testing.B) {
	ho := testHandover()
	benchJSONLEncode(b, func(jw *JSONLWriter) error { return jw.WriteHandover(&ho) })
}

func BenchmarkJSONLEncodeResponse(b *testing.B) {
	r := testResponse()
	benchJSONLEncode(b, func(jw *JSONLWriter) error { return jw.WriteResponse(r) })
}

func BenchmarkJSONLDecodeSample(b *testing.B) {
	s := benchSample()
	benchJSONLDecode(b, func(jw *JSONLWriter) error { return jw.WriteSample(&s) })
}

func BenchmarkJSONLDecodeReport(b *testing.B) {
	mr := testReport()
	benchJSONLDecode(b, func(jw *JSONLWriter) error { return jw.WriteReport(&mr) })
}

func BenchmarkJSONLDecodeHO(b *testing.B) {
	ho := testHandover()
	benchJSONLDecode(b, func(jw *JSONLWriter) error { return jw.WriteHandover(&ho) })
}

func BenchmarkJSONLDecodeResponse(b *testing.B) {
	line := benchLine(b, func(jw *JSONLWriter) error { return jw.WriteResponse(testResponse()) })
	var r Response
	b.SetBytes(int64(len(line)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !CanonicalResponse(line, &r) {
			b.Fatal("response line missed the canonical path")
		}
	}
}

func BenchmarkBinaryEncodeSample(b *testing.B) {
	s := benchSample()
	benchBinaryEncode(b, func(fw *FrameWriter) error { return fw.WriteSample(&s) })
}

func BenchmarkBinaryEncodeReport(b *testing.B) {
	mr := testReport()
	benchBinaryEncode(b, func(fw *FrameWriter) error { return fw.WriteReport(&mr) })
}

func BenchmarkBinaryEncodeHO(b *testing.B) {
	ho := testHandover()
	benchBinaryEncode(b, func(fw *FrameWriter) error { return fw.WriteHandover(&ho) })
}

func BenchmarkBinaryEncodeResponse(b *testing.B) {
	r := testResponse()
	benchBinaryEncode(b, func(fw *FrameWriter) error { return fw.WriteResponse(r) })
}

func BenchmarkBinaryDecodeSample(b *testing.B) {
	s := benchSample()
	p := benchPayload(b, func(fw *FrameWriter) error { return fw.WriteSample(&s) })
	var out trace.Sample
	b.SetBytes(int64(len(p)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeSample(p, &out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinaryDecodeReport(b *testing.B) {
	mr := testReport()
	p := benchPayload(b, func(fw *FrameWriter) error { return fw.WriteReport(&mr) })
	var out cellular.MeasurementReport
	b.SetBytes(int64(len(p)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeReport(p, &out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinaryDecodeHO(b *testing.B) {
	ho := testHandover()
	p := benchPayload(b, func(fw *FrameWriter) error { return fw.WriteHandover(&ho) })
	var out cellular.HandoverEvent
	b.SetBytes(int64(len(p)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeHandover(p, &out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinaryDecodeResponse(b *testing.B) {
	p := benchPayload(b, func(fw *FrameWriter) error { return fw.WriteResponse(testResponse()) })
	var out Response
	b.SetBytes(int64(len(p)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeResponse(p, &out); err != nil {
			b.Fatal(err)
		}
	}
}

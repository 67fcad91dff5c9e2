package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/trace"
)

func obsAt(pci int, rsrp float64) trace.CellObs {
	return trace.CellObs{
		PCI: cellular.PCI(pci), Tech: cellular.TechNR, Band: cellular.BandMid,
		RSRP: rsrp, RSRQ: -11.5, SINR: 13.25, Valid: true,
	}
}

func testSample() trace.Sample {
	return trace.Sample{
		Time: 1250 * time.Millisecond, X: 12.5, Y: -3.75, OdometerM: 812.125,
		SpeedMPS: 29, Arch: cellular.ArchNSA, InHO: true, HOType: cellular.HOSCGC,
		TputMbps:   412.75,
		ServingLTE: obsAt(101, -95.5), ServingNR: obsAt(502, -88.25),
		NeighborLTE: obsAt(103, -99), NeighborNR: trace.CellObs{},
	}
}

// roundTrip writes one record through a FrameWriter and reads it back.
func roundTrip(t *testing.T, write func(*FrameWriter) error) (byte, []byte) {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	fw := NewFrameWriter(bw)
	if err := write(fw); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(bufio.NewReader(&buf))
	typ, p, err := fr.ReadFrame()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return typ, p
}

// TestBinaryRoundTrips pins the binary framing: every record type must
// decode back to exactly what was encoded, for representative and edge
// payloads alike.
func TestBinaryRoundTrips(t *testing.T) {
	t.Run("sample", func(t *testing.T) {
		for _, in := range []trace.Sample{testSample(), {}} {
			typ, p := roundTrip(t, func(fw *FrameWriter) error { return fw.WriteSample(&in) })
			if typ != FrameSample {
				t.Fatalf("frame type 0x%02x", typ)
			}
			var out trace.Sample
			if err := DecodeSample(p, &out); err != nil {
				t.Fatal(err)
			}
			if out != in {
				t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", in, out)
			}
		}
	})
	t.Run("report", func(t *testing.T) {
		in := cellular.MeasurementReport{
			Time: 2 * time.Second, Event: cellular.EventA3, Tech: cellular.TechNR,
			ServingPCI: 501, NeighborPCI: 502, ServingRSRP: -97.5, NeighborRSRP: -91.25,
			Serving: cellular.RRS{RSRP: -97.5, RSRQ: -12, SINR: 9.5},
		}
		typ, p := roundTrip(t, func(fw *FrameWriter) error { return fw.WriteReport(&in) })
		if typ != FrameReport {
			t.Fatalf("frame type 0x%02x", typ)
		}
		var out cellular.MeasurementReport
		if err := DecodeReport(p, &out); err != nil {
			t.Fatal(err)
		}
		if out != in {
			t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", in, out)
		}
	})
	t.Run("handover", func(t *testing.T) {
		for _, in := range []cellular.HandoverEvent{
			{
				Time: 3 * time.Second, Type: cellular.HOSCGC, Arch: cellular.ArchNSA,
				Band: cellular.BandMMWave, SourcePCI: 501, TargetPCI: 611,
				SourceCell: "NR-501", TargetCell: "NR-611",
				T1: 45 * time.Millisecond, T2: 30 * time.Millisecond,
				CoLocated: true, DistanceM: 1812.5,
				Signaling: cellular.SignalingCount{RRC: 7, MAC: 2, PHY: 64},
			},
			{}, // empty cell IDs
			{SourceCell: strings.Repeat("s", 300), TargetCell: strings.Repeat("t", 4096)},
		} {
			typ, p := roundTrip(t, func(fw *FrameWriter) error { return fw.WriteHandover(&in) })
			if typ != FrameHO {
				t.Fatalf("frame type 0x%02x", typ)
			}
			var out cellular.HandoverEvent
			if err := DecodeHandover(p, &out); err != nil {
				t.Fatal(err)
			}
			if out != in {
				t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", in, out)
			}
		}
	})
	t.Run("response", func(t *testing.T) {
		in := Response{
			Time: 1500 * time.Millisecond, Type: cellular.HOLTEH, TypeName: "LTEH",
			Score: 0.42, Similarity: 0.91, LeadMS: 850, Seq: 12345,
		}
		typ, p := roundTrip(t, func(fw *FrameWriter) error { return fw.WriteResponse(in) })
		if typ != FrameResponse {
			t.Fatalf("frame type 0x%02x", typ)
		}
		var out Response
		if err := DecodeResponse(p, &out); err != nil {
			t.Fatal(err)
		}
		if out != in {
			t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", in, out)
		}
		// TypeName must be reconstructed, not transmitted.
		if out.TypeName != cellular.HOLTEH.String() {
			t.Fatalf("TypeName %q", out.TypeName)
		}
	})
	t.Run("resume_ack", func(t *testing.T) {
		in := ResumeAck{ResumeAck: true, Resumed: true, Seq: 777}
		typ, p := roundTrip(t, func(fw *FrameWriter) error { return fw.WriteResumeAck(in) })
		if typ != FrameResumeAck {
			t.Fatalf("frame type 0x%02x", typ)
		}
		var out ResumeAck
		if err := DecodeResumeAck(p, &out); err != nil {
			t.Fatal(err)
		}
		if out != in {
			t.Fatalf("round trip mismatch: %+v vs %+v", in, out)
		}
	})
	t.Run("error", func(t *testing.T) {
		typ, p := roundTrip(t, func(fw *FrameWriter) error { return fw.WriteError("session limit reached") })
		if typ != FrameError {
			t.Fatalf("frame type 0x%02x", typ)
		}
		if string(p) != "session limit reached" {
			t.Fatalf("payload %q", p)
		}
	})
	t.Run("migrate", func(t *testing.T) {
		state := []byte(`{"token":"ue-7","seq":42,"snapshot":{"version":1}}`)
		for _, want := range []byte{FrameMigrate, FrameReplicate} {
			typ, p := roundTrip(t, func(fw *FrameWriter) error { return fw.WriteState(want, state) })
			if typ != want {
				t.Fatalf("frame type 0x%02x, want 0x%02x", typ, want)
			}
			if string(p) != string(state) {
				t.Fatalf("payload %q", p)
			}
		}
		fw := NewFrameWriter(bufio.NewWriter(io.Discard))
		if err := fw.WriteState(FrameMigrate, make([]byte, MaxFrameBytes+1)); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("oversized migrate payload: err = %v, want ErrFrameTooLarge", err)
		}
		for _, bad := range []byte{FrameSample, FrameMigrateAck, FrameError} {
			if err := fw.WriteState(bad, state); err == nil {
				t.Errorf("WriteState accepted frame type 0x%02x", bad)
			}
		}
	})
	t.Run("migrate_ack", func(t *testing.T) {
		for _, want := range []byte{FrameMigrateAck, FrameReplicateAck} {
			for _, in := range []MigrateAck{{OK: true, Seq: 9}, {OK: false, Seq: 1}} {
				typ, p := roundTrip(t, func(fw *FrameWriter) error { return fw.WriteStateAck(want, in) })
				if typ != want {
					t.Fatalf("frame type 0x%02x, want 0x%02x", typ, want)
				}
				var out MigrateAck
				if err := DecodeStateAck(typ, p, &out); err != nil {
					t.Fatal(err)
				}
				if out != in {
					t.Fatalf("round trip mismatch: %+v vs %+v", in, out)
				}
			}
		}
		var a MigrateAck
		if err := DecodeStateAck(FrameMigrateAck, make([]byte, 8), &a); err == nil {
			t.Error("short migrate-ack payload decoded")
		}
		for _, bad := range []byte{FrameMigrate, FrameResumeAck, FrameResponse} {
			if err := DecodeStateAck(bad, make([]byte, migrateAckFrameLen), &a); err == nil {
				t.Errorf("DecodeStateAck accepted frame type 0x%02x", bad)
			}
			if err := NewFrameWriter(bufio.NewWriter(io.Discard)).WriteStateAck(bad, a); err == nil {
				t.Errorf("WriteStateAck accepted frame type 0x%02x", bad)
			}
		}
	})
}

// TestBinaryDecodeRejectsMalformed pins the decoder's failure mode: short,
// long and truncated payloads must error, never panic or mis-read.
func TestBinaryDecodeRejectsMalformed(t *testing.T) {
	var s trace.Sample
	if err := DecodeSample(make([]byte, 10), &s); err == nil {
		t.Error("short sample payload decoded")
	}
	if err := DecodeSample(make([]byte, 1000), &s); err == nil {
		t.Error("long sample payload decoded")
	}
	var mr cellular.MeasurementReport
	if err := DecodeReport(nil, &mr); err == nil {
		t.Error("empty report payload decoded")
	}
	var r Response
	if err := DecodeResponse(make([]byte, 40), &r); err == nil {
		t.Error("short response payload decoded")
	}
	var a ResumeAck
	if err := DecodeResumeAck(make([]byte, 8), &a); err == nil {
		t.Error("short resume-ack payload decoded")
	}
	// Handover frames are variable-width: truncate a valid frame at every
	// length and require an error each time.
	ho := cellular.HandoverEvent{SourceCell: "NR-501", TargetCell: "NR-611"}
	_, full := roundTrip(t, func(fw *FrameWriter) error { return fw.WriteHandover(&ho) })
	for n := 0; n < len(full); n++ {
		var out cellular.HandoverEvent
		if err := DecodeHandover(full[:n], &out); err == nil {
			t.Fatalf("truncated ho payload (%d of %d bytes) decoded", n, len(full))
		}
	}
	// A lying string length must not read past the payload.
	lying := append([]byte(nil), full...)
	binary.LittleEndian.PutUint16(lying[19:], 60000)
	var out cellular.HandoverEvent
	if err := DecodeHandover(lying, &out); err == nil {
		t.Error("oversized inner string length decoded")
	}
}

// TestFrameReaderLimitsAndEOF pins the reader's boundary behaviour:
// oversized frames are rejected, a clean EOF on a frame boundary is
// io.EOF, and an EOF inside a frame is io.ErrUnexpectedEOF.
func TestFrameReaderLimitsAndEOF(t *testing.T) {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], MaxFrameBytes+1)
	hdr[4] = FrameSample
	fr := NewFrameReader(bufio.NewReader(bytes.NewReader(hdr[:])))
	if _, _, err := fr.ReadFrame(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: %v", err)
	}

	fr = NewFrameReader(bufio.NewReader(bytes.NewReader(nil)))
	if _, _, err := fr.ReadFrame(); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream: %v", err)
	}

	s := testSample()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := NewFrameWriter(bw).WriteSample(&s); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	cut := buf.Bytes()[:buf.Len()-3]
	fr = NewFrameReader(bufio.NewReader(bytes.NewReader(cut)))
	if _, _, err := fr.ReadFrame(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("mid-frame EOF: %v", err)
	}
}

// TestReadLine pins the line reader: line-ending stripping, the final
// unterminated line, the size limit, and — the property bufio.Scanner
// cannot offer — leaving the reader's buffer intact so binary frames can
// follow a line on the same reader.
func TestReadLine(t *testing.T) {
	br := bufio.NewReader(strings.NewReader("alpha\nbeta\r\n\ngamma"))
	for _, want := range []string{"alpha", "beta", "", "gamma"} {
		line, err := ReadLine(br, 64)
		if err != nil {
			t.Fatalf("ReadLine: %v", err)
		}
		if string(line) != want {
			t.Fatalf("line %q, want %q", line, want)
		}
	}
	if _, err := ReadLine(br, 64); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF, got %v", err)
	}

	if _, err := ReadLine(bufio.NewReader(strings.NewReader(strings.Repeat("x", 100)+"\n")), 64); !errors.Is(err, ErrLineTooLong) {
		t.Fatal("oversized line accepted")
	}
	// Lines longer than the bufio buffer but under the limit still work.
	long := strings.Repeat("y", 200)
	line, err := ReadLine(bufio.NewReaderSize(strings.NewReader(long+"\n"), 16), 256)
	if err != nil {
		t.Fatal(err)
	}
	if string(line) != long {
		t.Fatalf("long line mangled (%d bytes)", len(line))
	}

	// Handoff: a hello line followed by a binary frame on one reader.
	s := testSample()
	var buf bytes.Buffer
	buf.WriteString("{\"hello\":true}\n")
	bw := bufio.NewWriter(&buf)
	if err := NewFrameWriter(bw).WriteSample(&s); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	br = bufio.NewReader(&buf)
	if line, err := ReadLine(br, MaxLineBytes); err != nil || string(line) != "{\"hello\":true}" {
		t.Fatalf("hello line: %q, %v", line, err)
	}
	typ, p, err := NewFrameReader(br).ReadFrame()
	if err != nil || typ != FrameSample {
		t.Fatalf("frame after line: type 0x%02x err %v", typ, err)
	}
	var out trace.Sample
	if err := DecodeSample(p, &out); err != nil {
		t.Fatal(err)
	}
	if out != s {
		t.Fatal("sample corrupted across the line/frame handoff")
	}
}

// TestFramingNegotiationTypes pins ParseFraming and the frame-type
// direction convention (high bit = server→client).
func TestFramingNegotiationTypes(t *testing.T) {
	for in, want := range map[string]Framing{"": FramingJSONL, "jsonl": FramingJSONL, "binary": FramingBinary} {
		got, err := ParseFraming(in)
		if err != nil || got != want {
			t.Fatalf("ParseFraming(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseFraming("protobuf"); err == nil {
		t.Fatal("unknown framing accepted")
	}
	for _, typ := range []byte{FrameSample, FrameReport, FrameHO} {
		if typ&0x80 != 0 {
			t.Fatalf("client frame 0x%02x has the server direction bit", typ)
		}
	}
	for _, typ := range []byte{FrameResponse, FrameResumeAck, FrameError} {
		if typ&0x80 == 0 {
			t.Fatalf("server frame 0x%02x lacks the direction bit", typ)
		}
	}
}

// TestBinaryHotPathAllocs pins the steady-state allocation contract of the
// framing layer itself: encoding and decoding sample/response frames
// reuses the writer's and reader's scratch buffers.
func TestBinaryHotPathAllocs(t *testing.T) {
	s := testSample()
	var buf bytes.Buffer
	bw := bufio.NewWriterSize(&buf, 1<<16)
	fw := NewFrameWriter(bw)
	// Warm the scratch buffers.
	if err := fw.WriteSample(&s); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	bw.Reset(&buf)
	allocs := testing.AllocsPerRun(200, func() {
		buf.Reset()
		bw.Reset(&buf)
		if err := fw.WriteSample(&s); err != nil {
			t.Fatal(err)
		}
		bw.Flush()
	})
	if allocs > 0 {
		t.Errorf("WriteSample allocates %.1f/op in steady state", allocs)
	}

	if err := fw.WriteSample(&s); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	frame := append([]byte(nil), buf.Bytes()...)
	rd := bytes.NewReader(frame)
	br := bufio.NewReader(rd)
	fr := NewFrameReader(br)
	var out trace.Sample
	allocs = testing.AllocsPerRun(200, func() {
		rd.Reset(frame)
		br.Reset(rd)
		_, p, err := fr.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeSample(p, &out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("ReadFrame+DecodeSample allocates %.1f/op in steady state", allocs)
	}
}

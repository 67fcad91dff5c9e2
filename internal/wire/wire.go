// Package wire defines the Prognos session protocol: the record and
// response types exchanged between a UE-side agent and a prognosd server,
// and the two framings they can travel in — line-oriented JSONL (the
// default, debuggable with netcat) and an opt-in length-prefixed binary
// framing negotiated in the hello for high-rate fleets.
//
// docs/PROTOCOL.md is the normative specification of everything in this
// package: handshake and framing negotiation, record and response layouts,
// sequence/resume semantics, error reporting and version rules. The types
// here are the single source of truth both the server (internal/server) and
// the load generator (internal/fleet) compile against.
package wire

import (
	"fmt"
	"time"

	"repro/internal/cellular"
	"repro/internal/trace"
)

// ProtocolVersion is the wire protocol version this package implements.
// It only moves on incompatible changes to the binary framing or the
// handshake; the JSONL framing evolves compatibly by field addition (see
// docs/PROTOCOL.md §Versioning).
const ProtocolVersion = 1

// MaxLineBytes bounds one JSONL protocol line (hello, record, response).
const MaxLineBytes = 1 << 20

// MaxFrameBytes bounds one binary frame payload. It matches MaxLineBytes
// so neither framing can make the peer buffer more than 1 MiB per record.
const MaxFrameBytes = 1 << 20

// Framing names a session's record encoding, negotiated in the hello.
type Framing string

// Supported framings.
const (
	// FramingJSONL is newline-delimited JSON, one record per line: the
	// default, and the only framing for hello and stats exchanges.
	FramingJSONL Framing = "jsonl"
	// FramingBinary is the length-prefixed binary framing of
	// docs/PROTOCOL.md §Binary framing. Sessions opt in via
	// Hello.Framing; every record after the server's FramingAck travels
	// as a binary frame.
	FramingBinary Framing = "binary"
)

// ParseFraming validates a framing name from a hello or a command line.
// The empty string parses as FramingJSONL, the wire default.
func ParseFraming(s string) (Framing, error) {
	switch Framing(s) {
	case "", FramingJSONL:
		return FramingJSONL, nil
	case FramingBinary:
		return FramingBinary, nil
	default:
		return "", fmt.Errorf("wire: unknown framing %q (want %q or %q)", s, FramingJSONL, FramingBinary)
	}
}

// Hello is the first line a client sends — always JSONL, regardless of the
// framing it requests: the deployment context the Prognos instance needs,
// or a stats request.
type Hello struct {
	// Carrier ("OpX"/"OpY") and Arch pick the measurement-event
	// configurations and policies the session's Prognos instance loads.
	Carrier string        `json:"carrier"`
	Arch    cellular.Arch `json:"arch"`
	// DisableReportPredictor disables the early-warning stage
	// (default: enabled).
	DisableReportPredictor bool `json:"disable_report_predictor,omitempty"`
	// Stats, when true, turns the session into a one-shot stats query:
	// the server answers with one metrics.ServerSnapshot JSON line and
	// closes. Carrier/Arch are ignored for stats sessions, and stats
	// sessions are never counted against the session limit. Stats
	// sessions are always JSONL; a Framing request is ignored.
	Stats bool `json:"stats,omitempty"`
	// SessionToken, when set, makes the session resumable: if the
	// transport drops mid-stream the server parks the warm Prognos
	// instance for Options.ResumeGrace, and a reconnect presenting the
	// same token re-attaches to it. The server then answers the hello
	// with a ResumeAck (and replays any buffered responses the client
	// missed) before resuming the record stream. Tokens are
	// client-chosen; they only need to be unique per server.
	SessionToken string `json:"session_token,omitempty"`
	// LastSeq is the highest Response.Seq the client has already read,
	// so a resumed session replays exactly the responses that were lost
	// in flight and nothing the client already has.
	LastSeq int64 `json:"last_seq,omitempty"`
	// Framing requests a record framing for the rest of the session:
	// "" or "jsonl" for JSONL (no acknowledgement line), "binary" for
	// the length-prefixed binary framing. A binary request is answered
	// with one JSONL FramingAck line before the switch; servers that
	// cannot satisfy it send an ErrorLine instead (see
	// docs/PROTOCOL.md §Negotiation).
	Framing string `json:"framing,omitempty"`
	// Migrate, when true, turns the session into a node-to-node warm-state
	// migration stream (docs/PROTOCOL.md §Migration frames): the peer is
	// another prognosd shipping parked-session state and warm snapshots,
	// not a UE. Migration streams require the binary framing and exchange
	// FrameMigrate/FrameMigrateAck frames. Node names the shipping node.
	Migrate bool   `json:"migrate,omitempty"`
	Node    string `json:"node,omitempty"`
	// Replicate, when true, turns the session into a node-to-node async
	// replication stream (docs/PROTOCOL.md §Replication frames): the peer
	// is another prognosd pushing warm snapshots and session states for
	// passive safekeeping on this node — the crash-fault successor copy,
	// not a drain handoff. Replication streams require the binary framing
	// and exchange FrameReplicate/FrameReplicateAck frames; Node names
	// the shipping node, as for Migrate.
	Replicate bool `json:"replicate,omitempty"`
}

// FramingAck is the JSONL line a server sends in answer to a hello that
// requested a non-default framing, immediately before switching to it.
// Everything after this line — ResumeAck, replayed responses, records —
// travels in the acknowledged framing.
type FramingAck struct {
	FramingAck  bool    `json:"framing_ack"`
	Framing     Framing `json:"framing"`
	WireVersion int     `json:"wire_version"`
}

// Record is one streamed observation; exactly one payload field is set.
type Record struct {
	// Sample is a 20 Hz radio sample; the server answers it with a
	// Response. Report (a sniffed measurement report) and HO (a sniffed
	// handover command) are one-way observations.
	Sample *trace.Sample               `json:"sample,omitempty"`
	Report *cellular.MeasurementReport `json:"report,omitempty"`
	HO     *cellular.HandoverEvent     `json:"ho,omitempty"`
}

// Response is the per-sample prediction sent back to the client.
type Response struct {
	// Time echoes the triggering sample's timestamp.
	Time time.Duration `json:"t"`
	// Type and TypeName give the predicted handover for the coming
	// prediction window (HONone/"NONE" when quiet). TypeName is
	// redundant with Type and is reconstructed, not transmitted, by the
	// binary framing.
	Type     cellular.HOType `json:"type"`
	TypeName string          `json:"type_name"`
	// Score is the ho_score applications act on (§7: 1 = no impact
	// expected, lower = heavier procedure expected).
	Score float64 `json:"score"`
	// Similarity is the matched pattern's similarity (diagnostics), and
	// LeadMS how far ahead the prediction was first standing.
	Similarity float64 `json:"similarity"`
	LeadMS     int64   `json:"lead_ms"`
	// Seq is the 1-based ordinal of the sample this response answers,
	// the resume cursor: a reconnecting client reports the highest Seq
	// it has read and the server replays from there.
	Seq int64 `json:"seq,omitempty"`
}

// ResumeAck is the acknowledgement the server sends right after the hello
// of any tokened session, before the first response. Resumed reports
// whether a parked warm instance was re-attached; Seq is the server's
// resume cursor (the highest Response.Seq it has answered — 0 for a fresh
// session). When Resumed is true the server guarantees it will replay
// every buffered response in (hello.LastSeq, Seq] immediately after this
// record, so the client only needs to resend samples it sent after Seq.
// When Resumed is false the server state is fresh: the client must reset
// its cursor to 0 and resend everything unanswered.
type ResumeAck struct {
	ResumeAck bool  `json:"resume_ack"`
	Resumed   bool  `json:"resumed"`
	Seq       int64 `json:"seq"`
}

// ErrorLine is the structured error the server sends before tearing down a
// session it cannot (or can no longer) serve: over-limit rejection, a
// malformed or oversized record, an engine failure. In JSONL sessions it is
// one {"error": ...} line; in binary sessions the same text travels as a
// FrameError frame. Clients surface the text as the error of the call that
// read it.
type ErrorLine struct {
	Error string `json:"error"`
	// Redirect, when set, names the cluster node that owns the session's
	// token (host:port): the client should re-dial there rather than
	// retry here. Redirects are issued at hello time, before any framing
	// ack, so they always travel as a JSONL line (docs/PROTOCOL.md
	// §Redirects).
	Redirect string `json:"redirect,omitempty"`
}

// MigrateAck is the per-record acknowledgement of a state stream
// (migration or replication): the receiving node confirms (or rejects) one
// shipped session state. Seq is the 1-based ordinal of the state frame it
// answers, so a shipping node can pipeline frames and still attribute
// every verdict.
type MigrateAck struct {
	OK  bool  `json:"ok"`
	Seq int64 `json:"seq"`
}

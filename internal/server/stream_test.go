// Warm-state streams, receiving side: migration and replication share one
// receive loop, one install validation and one fault rule, so every case
// below runs once per stream kind.

package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/cluster"
	"repro/internal/wire"
)

// streamKinds lists both state streams, the frame type of the other kind
// (foreign in their stream), and whether the stream needs a clustered
// receiver.
var streamKinds = []struct {
	k         stateStream
	foreign   byte
	needsRing bool
}{
	{migrationStream, wire.FrameReplicate, false},
	{replicationStream, wire.FrameMigrate, true},
}

// clusteredServer starts a server in a two-member ring whose other member
// is unreachable; no replication loop or detector runs.
func clusteredServer(t *testing.T, opts Options) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ring, err := cluster.New([]string{ln.Addr().String(), "127.0.0.1:1"}, cluster.NewRingPolicy())
	if err != nil {
		t.Fatal(err)
	}
	opts.Cluster, opts.NodeAddr = ring, ln.Addr().String()
	srv := Serve(ln, opts)
	t.Cleanup(func() { srv.Close() })
	return srv
}

// openStream dials srv, sends k's binary hello and reads the framing ack,
// returning the raw conn positioned at the first state frame.
func openStream(t *testing.T, srv *Server, k stateStream) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	h := k.Hello
	h.Node = "test-origin"
	if err := json.NewEncoder(conn).Encode(h); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	line, err := wire.ReadLine(br, wire.MaxLineBytes)
	if err != nil {
		t.Fatal(err)
	}
	var ack wire.FramingAck
	if err := json.Unmarshal(line, &ack); err != nil || !ack.FramingAck {
		t.Fatalf("handshake answered %q", line)
	}
	return conn, br
}

// stateFrame encodes one valid context state as a frame of type typ.
func stateFrame(t *testing.T, typ byte) []byte {
	t.Helper()
	payload, err := json.Marshal(cluster.SessionState{
		Version: cluster.SessionStateVersion, Carrier: "OpX", Arch: cellular.ArchLTE,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := wire.NewFrameWriter(bw).WriteState(typ, payload); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	return buf.Bytes()
}

// TestStateStreams pins the receiving side of both warm-state streams:
// the stream-level gates, the install verdicts, and the fault rule —
// transport faults are interruptions, protocol faults are errors.
func TestStateStreams(t *testing.T) {
	for _, kind := range streamKinds {
		k := kind.k
		t.Run(k.Name, func(t *testing.T) {
			// A JSONL hello is rejected before any state moves.
			t.Run("requires_binary", func(t *testing.T) {
				srv := clusteredServer(t, Options{ResumeGrace: time.Minute})
				h := k.Hello
				h.Framing, h.Node = "", "test"
				c, err := Dial(srv.Addr(), h)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				_, err = c.ReadResponse()
				var se *ServerError
				if !errors.As(err, &se) {
					t.Fatalf("JSONL %s hello: got %v, want ServerError", k.Name, err)
				}
			})

			// Only replication needs a ring: a lone node still takes a
			// drained peer's state over a migration stream.
			t.Run("cluster_guard", func(t *testing.T) {
				srv, err := ListenWith("127.0.0.1:0", Options{ResumeGrace: time.Minute})
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				st, err := k.Ship(srv.Addr(), "test-origin", []cluster.SessionState{{
					Carrier: "OpX", Arch: cellular.ArchLTE,
				}}, time.Second)
				if kind.needsRing {
					if err == nil {
						t.Fatalf("%s stream accepted by a non-clustered server", k.Name)
					}
				} else if err != nil || st.Contexts != 1 {
					t.Fatalf("%s to a non-clustered server: %+v, %v", k.Name, st, err)
				}
			})

			// A newer-than-implemented version, a state without a carrier,
			// and a tokened state on a node with resume disabled are all
			// nacked, while a token-less state lands as a context snapshot
			// only.
			t.Run("install_rejections", func(t *testing.T) {
				srv := clusteredServer(t, Options{}) // resume disabled
				install := func(st cluster.SessionState) error { return k.install(srv, st, "peer") }
				if err := install(cluster.SessionState{
					Version: cluster.SessionStateVersion + 1, Carrier: "OpX",
				}); err == nil {
					t.Error("future-version state installed")
				}
				if err := install(cluster.SessionState{Version: cluster.SessionStateVersion}); err == nil {
					t.Error("carrier-less state installed")
				}
				if err := install(cluster.SessionState{
					Version: cluster.SessionStateVersion, Carrier: "OpX", Token: "tok",
				}); err == nil {
					t.Error("tokened state installed with resume disabled")
				}
				if err := install(cluster.SessionState{
					Version: cluster.SessionStateVersion, Carrier: "OpX", Arch: cellular.ArchLTE,
				}); err != nil {
					t.Errorf("context snapshot rejected: %v", err)
				}
				if n, p := srv.replicas.size(), srv.Stats().Parked; n != 0 || p != 0 {
					t.Errorf("context snapshot left %d replica and %d parked entries", n, p)
				}
				if _, ok := srv.warmSnapshot("OpX", cellular.ArchLTE); !ok {
					t.Error("context snapshot never reached the warm store")
				}
			})

			// A shipper dying mid-frame is churn: not a session error, and
			// not an interrupted session either — nothing was parked.
			t.Run("cut_mid_frame", func(t *testing.T) {
				srv := clusteredServer(t, Options{ResumeGrace: time.Minute})
				conn, _ := openStream(t, srv, k)
				f := stateFrame(t, k.Frame)
				if _, err := conn.Write(f[:len(f)-5]); err != nil {
					t.Fatal(err)
				}
				conn.Close()
				waitFor(t, "the cut stream to end", func() bool { return openConns(srv) == 0 })
				if st := srv.Stats(); st.SessionErrors != 0 || st.Interrupted != 0 || st.Parked != 0 {
					t.Fatalf("cut %s stream: session_errors %d, interrupted %d, parked %d; want 0, 0, 0",
						k.Name, st.SessionErrors, st.Interrupted, st.Parked)
				}
			})

			// The other kind's state frame is a protocol error, answered
			// with a FrameError before teardown.
			t.Run("wrong_frame_type", func(t *testing.T) {
				srv := clusteredServer(t, Options{ResumeGrace: time.Minute})
				conn, br := openStream(t, srv, k)
				if _, err := conn.Write(stateFrame(t, kind.foreign)); err != nil {
					t.Fatal(err)
				}
				typ, p, err := wire.NewFrameReader(br).ReadFrame()
				if err != nil || typ != wire.FrameError {
					t.Fatalf("foreign frame in %s stream answered 0x%02x %q, %v; want an error frame", k.Name, typ, p, err)
				}
				waitFor(t, "the session error", func() bool { return srv.Stats().SessionErrors == 1 })
			})
		})
	}
}

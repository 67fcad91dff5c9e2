// Warm-state streams, server side: the machinery drain migration and
// crash replication share (docs/PROTOCOL.md §Migration frames,
// §Replication frames) — one receive loop, one install validation, one
// parked-session rebuild, one send-side batching — plus the drain. A
// draining node ships every parked session and warm context snapshot to
// the ring successor that will own each token once it is gone; the
// receiver re-parks shipped sessions — replay buffer and resume cursor
// intact — so the UE's next reconnect resumes warm with exact replay.
// Replication (replicate.go) lands its states in the passive replica
// table instead.

package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/cellular"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/ran"
	"repro/internal/wire"
)

// stateStream is the receiving side's per-kind half of a warm-state
// stream: the frame types, where an accepted state goes and which
// bytes-in counter it feeds.
type stateStream struct {
	cluster.Stream
	install  func(s *Server, st cluster.SessionState, origin string) error
	received func(st *metrics.ServerStats, bytes int64)
}

var (
	migrationStream = stateStream{
		Stream:   cluster.Migration,
		install:  (*Server).installMigrated,
		received: (*metrics.ServerStats).MigrationReceived,
	}
	replicationStream = stateStream{
		Stream:   cluster.Replication,
		install:  (*Server).installReplica,
		received: (*metrics.ServerStats).ReplicationReceived,
	}
)

// serveStateStream runs the receiving side of one warm-state stream from
// the node origin: binary framing only, k.Frame in, k.Ack out, one ack per
// state in order. State streams hold no MaxSessions slot and open no
// serving session — they are cluster control plane, not load. Transport
// faults are interruptions, not session errors: the shipper may be a node
// dying mid-push, and a crash already under way must not inflate this
// node's error counters. An oversized or foreign frame is a protocol
// error.
func (s *Server) serveStateStream(origin string, br *bufio.Reader, w *bufio.Writer, framing wire.Framing, k stateStream) (codec, error) {
	if framing != wire.FramingBinary {
		return nil, fmt.Errorf("server: %s streams require the binary framing", k.Name)
	}
	if writeFramingAck(w) != nil || w.Flush() != nil {
		return nil, errInterrupted
	}
	cdc := newBinaryCodec(br, w)
	fr, fw := cdc.fr, cdc.fw
	var seq int64
	for {
		typ, p, err := fr.ReadFrame()
		if errors.Is(err, io.EOF) {
			// The shipper is done: answer everything, then close.
			err = w.Flush()
			if err == nil {
				return cdc, nil
			}
		}
		if errors.Is(err, wire.ErrFrameTooLarge) {
			return cdc, err
		}
		if err != nil {
			return cdc, errInterrupted
		}
		if typ != k.Frame {
			return cdc, fmt.Errorf("server: unexpected frame type 0x%02x in %s stream", typ, k.Name)
		}
		seq++
		k.received(s.stats, int64(len(p)))
		var st cluster.SessionState
		ok := json.Unmarshal(p, &st) == nil && k.install(s, st, origin) == nil
		if err := fw.WriteStateAck(k.Ack, wire.MigrateAck{OK: ok, Seq: seq}); err != nil {
			return cdc, errInterrupted
		}
		// Coalesce ack flushes exactly like the serving path: hold them
		// while more shipped frames are already buffered.
		if fr.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				return cdc, errInterrupted
			}
		}
	}
}

// admitState is the validation both install paths share. It rejects a
// state from a newer schema or without a carrier, folds a context state
// (no token) into the warm store — the empty-token slot, like a restored
// checkpoint; any later live push outranks it — and rejects a session
// state when this node cannot hold one. session reports a session state
// that passed and still needs installing.
func (s *Server) admitState(st cluster.SessionState) (session bool, err error) {
	if st.Version > cluster.SessionStateVersion {
		return false, fmt.Errorf("server: shipped state version %d is newer than %d", st.Version, cluster.SessionStateVersion)
	}
	if st.Carrier == "" {
		return false, errors.New("server: shipped state without carrier")
	}
	if st.Token == "" {
		s.warm.push(warmKey{carrier: st.Carrier, arch: st.Arch.String()}, "", st.Snapshot)
		return false, nil
	}
	if s.opts.ResumeGrace <= 0 {
		// Without a resume grace window this node can neither park nor
		// promote a session; nacking lets the shipper account it as
		// rejected instead of silently downgrading it to a cold resume.
		return false, errors.New("server: resume disabled, cannot hold a shipped session")
	}
	return true, nil
}

// parkShipped rebuilds a shipped session state into parked state and
// parks it: a fresh learner restored from the state's snapshot — or, for
// a partial state that carries none, warm-started from this node's
// context snapshot — with its replay buffer refilled. The learner is
// built without the report predictor. replica marks a failover promotion;
// ev and detail name the move in the event trace.
func (s *Server) parkShipped(st cluster.SessionState, replica bool, ev, detail string) error {
	prog, err := core.New(core.Config{
		EventConfigs: ran.EventConfigsFor(st.Carrier, st.Arch),
		Arch:         st.Arch,
	})
	if err != nil {
		return err
	}
	if !st.Partial {
		prog.Restore(st.Snapshot)
	} else if snap, ok := s.warmSnapshot(st.Carrier, st.Arch); ok {
		prog.Bootstrap(snap.Learner.Patterns)
	}
	buf := newReplayBuffer(replayBufCap)
	for _, r := range st.Responses {
		buf.push(r)
	}
	s.park(&parkedSession{
		token:    st.Token,
		prog:     prog,
		seq:      st.Seq,
		buf:      buf,
		carrier:  st.Carrier,
		arch:     st.Arch,
		migrated: true,
		replica:  replica,
	}, false)
	s.opts.Tracer.Emit(obs.Event{
		Kind:    ev,
		Session: st.Token,
		Carrier: st.Carrier,
		Arch:    st.Arch.String(),
		RespSeq: st.Seq,
		Detail:  detail,
	})
	return nil
}

// resumeState is a session's shippable resume cursor with the newest
// tail responses of its replay buffer, without a learner snapshot.
func resumeState(token, carrier string, arch cellular.Arch, seq int64, buf *replayBuffer, tail int) cluster.SessionState {
	var resp []Response
	if buf != nil {
		r := buf.resp
		if len(r) > tail {
			r = r[len(r)-tail:]
		}
		resp = append(resp, r...)
	}
	return cluster.SessionState{
		Token:     token,
		Carrier:   carrier,
		Arch:      arch,
		Seq:       seq,
		Responses: resp,
	}
}

// parkedState is the full shippable copy of a parked session. The caller
// must own p (unparked, or under its shard lock), since it snapshots
// p.prog.
func parkedState(p *parkedSession) cluster.SessionState {
	st := resumeState(p.token, p.carrier, p.arch, p.seq, p.buf, replayBufCap)
	st.Snapshot = p.prog.Snapshot()
	return st
}

// successorBatches groups session states, keyed by token, by the member
// of rest that owns each token and adds every warm context snapshot to
// every member's batch: tokens without shipped state re-land anywhere on
// the ring, and wherever they do, the learned patterns should be waiting.
func (s *Server) successorBatches(rest *cluster.Ring, states map[string]cluster.SessionState) map[string][]cluster.SessionState {
	batches := make(map[string][]cluster.SessionState)
	for _, st := range states {
		owner := rest.Owner(st.Token)
		batches[owner] = append(batches[owner], st)
	}
	var contexts []cluster.SessionState
	for k, snap := range s.warm.all() {
		arch, err := cellular.ParseArch(k.arch)
		if err != nil {
			continue
		}
		contexts = append(contexts, cluster.SessionState{
			Carrier:  k.carrier,
			Arch:     arch,
			Snapshot: snap,
		})
	}
	for _, m := range rest.Members() {
		batches[m] = append(batches[m], contexts...)
	}
	return batches
}

// installMigrated folds one shipped state into this node. Context states
// (no token) merge into the warm store; session states are re-parked with
// a fresh grace window, rebuilt around a restored Prognos instance.
func (s *Server) installMigrated(st cluster.SessionState, origin string) error {
	if session, err := s.admitState(st); !session {
		return err
	}
	if err := s.parkShipped(st, false, obs.EvMigrateIn, "from "+origin); err != nil {
		return err
	}
	s.stats.SessionMigratedIn()
	return nil
}

// DrainStats accounts one DrainToCluster pass.
type DrainStats struct {
	// Forced counts in-flight sessions force-closed into the parked table;
	// Sessions and Contexts the states the peers accepted, Rejected the
	// states they nacked.
	Forced   int
	Sessions int
	Contexts int
	Rejected int
	// Targets is the number of peer nodes shipped to, Bytes the total
	// migration payload shipped, Elapsed the whole pass's wall time.
	Targets int
	Bytes   int64
	Elapsed time.Duration
	// LocalFallback reports that no peer could be reached at all, so the
	// drain fell back to local persistence: everything that would have
	// shipped stays merged in the warm store and (if configured) the
	// final checkpoint. Not an error — the state survives locally and the
	// summary says so — whereas a partial ship failure still surfaces one.
	LocalFallback bool
}

// Summary renders the pass for operator logs, naming the fallback
// explicitly when every peer was unreachable.
func (ds DrainStats) Summary() string {
	if ds.LocalFallback {
		return fmt.Sprintf(
			"drain: no reachable peers; fell back to local persistence (forced %d sessions; learned state kept in the warm store and local checkpoint) in %v",
			ds.Forced, ds.Elapsed.Round(time.Millisecond))
	}
	return fmt.Sprintf(
		"drain: %d sessions + %d contexts to %d targets (%d rejected, %d bytes, forced %d) in %v",
		ds.Sessions, ds.Contexts, ds.Targets, ds.Rejected, ds.Bytes, ds.Forced,
		ds.Elapsed.Round(time.Millisecond))
}

// DrainToCluster drains this node into its cluster: it stops accepting,
// cuts in-flight sessions so they park (resumable sessions park on
// transport fault — the same zero-loss path a crash exercises, except
// deliberate), then ships every parked session to the ring successor that
// owns its token once this node is gone, and every warm context snapshot
// to every peer. Shipping is best-effort per target: states a peer could
// not take were still merged into this node's warm store and checkpoint
// (if configured), so the worst case is a cold resume, never a lost
// sample. The per-target timeout bounds each migration stream.
func (s *Server) DrainToCluster(timeout time.Duration) (DrainStats, error) {
	start := time.Now()
	var ds DrainStats
	if s.opts.Cluster == nil {
		return ds, errors.New("server: DrainToCluster on a server without a cluster ring")
	}
	rest, err := s.opts.Cluster.Without(s.opts.NodeAddr)
	if err != nil {
		return ds, fmt.Errorf("server: no drain successors: %w", err)
	}

	// Stop accepting and cut the in-flight sessions. Each resumable
	// session's serve goroutine parks its warm state on the way out, so
	// after wg.Wait the parked table holds everything worth shipping.
	s.stopAccept()
	s.mu.Lock()
	ds.Forced = len(s.conns)
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()

	parked := s.parked.drainAll()
	states := make(map[string]cluster.SessionState, len(parked))
	for _, p := range parked {
		s.stats.SessionUnparked()
		states[p.token] = parkedState(p)
	}
	batches := s.successorBatches(rest, states)
	var firstErr error
	for _, target := range rest.Members() {
		if len(batches[target]) == 0 {
			continue
		}
		st, err := cluster.Ship(target, s.opts.NodeAddr, batches[target], timeout)
		ds.Bytes += st.Bytes
		ds.Sessions += st.Sessions
		ds.Contexts += st.Contexts
		ds.Rejected += st.Rejected
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		ds.Targets++
		for i := 0; i < st.Sessions; i++ {
			s.stats.SessionMigratedOut()
		}
	}
	ds.Elapsed = time.Since(start)
	s.stats.MigrationShipped(ds.Bytes, ds.Elapsed)
	s.opts.Tracer.Emit(obs.Event{
		Kind:  obs.EvMigrateOut,
		Bytes: ds.Bytes,
		Detail: fmt.Sprintf("%d sessions, %d contexts to %d targets in %v",
			ds.Sessions, ds.Contexts, ds.Targets, ds.Elapsed.Round(time.Millisecond)),
	})
	if s.opts.CheckpointDir != "" {
		// The checkpoint is the fallback for anything a peer nacked.
		s.CheckpointNow()
	}
	if ds.Targets == 0 && firstErr != nil {
		// Every peer was unreachable (a partitioned or wholly-crashed
		// cluster): not a drain failure. Everything that would have
		// shipped was already merged into the warm store when it parked,
		// and the checkpoint above (when configured) persisted it — the
		// worst case on restart is a cold resume warmed by that state.
		// Surfacing an error here would make callers treat a survivable
		// shutdown as a failed one.
		ds.LocalFallback = true
		firstErr = nil
	}
	return ds, firstErr
}

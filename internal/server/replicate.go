// Crash-fault tolerance, server side. Where migrate.go moves warm state
// deliberately (a drain), this file moves it preemptively: every
// ReplicationInterval the node pushes its live-session resume states,
// parked sessions and warm context snapshots to the ring successor that
// would inherit each token if this node vanished
// (docs/PROTOCOL.md §Replication frames). The receiver holds session
// states passively in a replica table — never in the parked table, so
// prognos_parked_sessions is never double-counted — and promotes one only
// when the failure detector confirms its origin down. The contract is
// bounded staleness: a crash loses at most the samples accumulated since
// the last replication push, never a whole session's learner state
// (docs/ARCHITECTURE.md §Failure model).

package server

import (
	"sync"
	"time"

	"repro/internal/cellular"
	"repro/internal/cluster"
	"repro/internal/obs"
)

// replicaLiveTail bounds the replay-buffer tail a live session deposits
// with each partial replication push. It only needs to cover responses
// that may be in flight to the client at the moment of a crash — the
// pipelining window plus transport buffering — not the full replayBufCap.
const replicaLiveTail = 64

// replicaOutbox collects the partial session states live sessions deposit
// once per replication tick, keyed by token (latest push wins). The
// replication loop drains it wholesale each pass.
type replicaOutbox struct {
	mu sync.Mutex
	m  map[string]cluster.SessionState
}

func newReplicaOutbox() *replicaOutbox {
	return &replicaOutbox{m: make(map[string]cluster.SessionState)}
}

// put deposits one live session's resume state. Called from the session's
// own goroutine, so reading the replay buffer needs no synchronization;
// the copy taken here is what crosses into the replication loop.
func (o *replicaOutbox) put(token, carrier string, arch cellular.Arch, seq int64, buf *replayBuffer) {
	st := resumeState(token, carrier, arch, seq, buf, replicaLiveTail)
	st.Partial = true
	o.mu.Lock()
	o.m[token] = st
	o.mu.Unlock()
}

// drain swaps out and returns everything deposited since the last drain.
func (o *replicaOutbox) drain() map[string]cluster.SessionState {
	o.mu.Lock()
	m := o.m
	o.m = make(map[string]cluster.SessionState, len(m))
	o.mu.Unlock()
	return m
}

// replicaEntry is one peer session state held for failover.
type replicaEntry struct {
	st      cluster.SessionState
	origin  string
	expires time.Time
}

// replicaStore holds replicated peer session states, keyed by token,
// latest push wins. Deliberately separate from the parked table: replicas
// are passive (never resumed directly, never counted in the parked
// gauge) until a confirmed owner failure promotes them.
type replicaStore struct {
	mu sync.Mutex
	m  map[string]*replicaEntry
}

func newReplicaStore() *replicaStore {
	return &replicaStore{m: make(map[string]*replicaEntry)}
}

// install stores st, refreshing expiry; it reports whether the token is
// new to the table (the gauge increment signal).
func (r *replicaStore) install(st cluster.SessionState, origin string, expires time.Time) (fresh bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, exists := r.m[st.Token]
	r.m[st.Token] = &replicaEntry{st: st, origin: origin, expires: expires}
	return !exists
}

// take removes and returns the replica for token, or nil.
func (r *replicaStore) take(token string) *replicaEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.m[token]
	if !ok {
		return nil
	}
	delete(r.m, token)
	return e
}

// sweep drops every replica past its expiry and returns how many fell.
func (r *replicaStore) sweep(now time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for token, e := range r.m {
		if now.After(e.expires) {
			delete(r.m, token)
			n++
		}
	}
	return n
}

// size returns the current replica count (tests).
func (r *replicaStore) size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.m)
}

// installReplica folds one pushed state into this node's passive stores:
// context snapshots into the warm store (exactly as migration does),
// session states into the replica table with a fresh expiry.
func (s *Server) installReplica(st cluster.SessionState, origin string) error {
	if session, err := s.admitState(st); !session {
		return err
	}
	if fresh := s.replicas.install(st, origin, time.Now().Add(s.opts.ResumeGrace)); fresh {
		s.stats.ReplicaStored()
	}
	return nil
}

// promoteReplica turns a held replica into parked state this node can
// serve: the failover moment. Partial states (live-session pushes) carry
// no learner snapshot — the learner warm-starts from the separately
// replicated context snapshot instead — while full states restore
// exactly. It reports whether a replica existed.
func (s *Server) promoteReplica(token string) bool {
	e := s.replicas.take(token)
	if e == nil {
		return false
	}
	s.stats.ReplicaDropped()
	if s.parkShipped(e.st, true, obs.EvFailover, "replica of "+e.origin) != nil {
		return false
	}
	s.stats.Failover()
	return true
}

// failoverTarget decides how to answer a tokened hello whose ring owner
// is another node and for which this node holds no parked state. Unless
// the detector has confirmed the owner down, the answer is the standing
// redirect to the owner. After confirmation, replicated state outranks
// the ring: promote this node's replica and serve, or — holding none —
// serve only if this node is the token's failover successor (the owner
// every surviving node agrees on with the dead member removed, so at most
// one node adopts an orphan token), redirecting there otherwise.
func (s *Server) failoverTarget(owner, token string) (serveHere bool, target string) {
	if s.detector == nil || !s.detector.Down(owner) {
		return false, owner
	}
	if s.promoteReplica(token) {
		return true, ""
	}
	rest, err := s.opts.Cluster.Without(owner)
	if err != nil {
		// The dead owner was the only other member; serving cold here
		// beats redirecting the client at a dead address.
		return true, ""
	}
	if succ := rest.Owner(token); succ != s.opts.NodeAddr {
		return false, succ
	}
	return true, ""
}

// startDetector wires the failure detector over the ring peers and routes
// its confirmed transitions into stats and the tracer.
func (s *Server) startDetector() {
	var peers []string
	for _, m := range s.opts.Cluster.Members() {
		if m != s.opts.NodeAddr {
			peers = append(peers, m)
		}
	}
	if len(peers) == 0 {
		return
	}
	s.detector = cluster.NewDetector(cluster.DetectorConfig{
		Peers:     peers,
		Interval:  s.opts.HeartbeatInterval,
		Threshold: s.opts.SuspectThreshold,
		OnChange: func(peer string, down bool) {
			if down {
				s.stats.PeerSuspected()
				s.opts.Tracer.Emit(obs.Event{Kind: obs.EvPeerDown, Detail: peer})
				return
			}
			s.stats.PeerRecovered()
			s.opts.Tracer.Emit(obs.Event{Kind: obs.EvPeerUp, Detail: peer})
		},
	})
	s.detector.Start()
}

// replicationLoop drives the async replication cadence: each tick bumps
// repGen — the signal live sessions key their outbox deposits off — and
// ships everything deposited since the previous tick. A pass therefore
// carries state at most one interval old, making the end-to-end staleness
// bound two intervals plus ship latency (docs/ARCHITECTURE.md §Failure
// model documents the resulting loss bound).
func (s *Server) replicationLoop() {
	t := time.NewTicker(s.opts.ReplicationInterval)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			s.repGen.Add(1)
			s.replicateOnce()
		}
	}
}

// replicateOnce ships one replication pass: drained live-session states
// plus a fresh copy of every parked session, each to the ring successor
// that would own its token without this node, and every warm context
// snapshot to every peer. Best-effort per target — a failed push costs
// one interval of staleness, and peers the detector holds down are
// skipped rather than letting a dead successor stall the pass.
func (s *Server) replicateOnce() {
	rest, err := s.opts.Cluster.Without(s.opts.NodeAddr)
	if err != nil {
		return // single-member ring: nowhere to replicate
	}
	states := s.replOut.drain()
	now := time.Now()
	s.parked.forEach(func(p *parkedSession) {
		// forEach holds the shard lock, so the entry cannot be unparked
		// (and its Prognos handed to a session) mid-snapshot.
		if !now.After(p.expires) {
			states[p.token] = parkedState(p)
		}
	})
	batches := s.successorBatches(rest, states)
	timeout := 4 * s.opts.ReplicationInterval
	if timeout < 2*time.Second {
		timeout = 2 * time.Second
	}
	var bytes int64
	shipped := false
	for _, target := range rest.Members() {
		if len(batches[target]) == 0 {
			continue
		}
		if s.detector != nil && s.detector.Down(target) {
			continue
		}
		st, err := cluster.Replication.Ship(target, s.opts.NodeAddr, batches[target], timeout)
		bytes += st.Bytes
		if err != nil {
			continue
		}
		shipped = true
	}
	if shipped {
		s.stats.ReplicationPushed(bytes)
	}
}

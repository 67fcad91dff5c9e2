package server

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/core"
	"repro/internal/ran"
)

// markedSnap builds a snapshot distinguishable by its Learned counter, so
// tests can tell exactly which push freshest returned.
func markedSnap(mark int) core.Snapshot {
	return core.Snapshot{Learner: core.LearnerState{Learned: mark}}
}

// TestWarmStoreFreshestLatestWins drives the sharded warm store with
// concurrent pushes landing across all slots of one context, then performs
// a single serialized push and asserts freshest returns exactly that one:
// the global stamp must order pushes across slots, not just within one.
// Run under -race this also exercises the store's lock discipline.
func TestWarmStoreFreshestLatestWins(t *testing.T) {
	ws := newWarmStore()
	key := warmKey{carrier: "OpX", arch: "NSA"}
	other := warmKey{carrier: "OpY", arch: "SA"}

	const (
		pushers        = 8
		pushesPerGorou = 200
	)
	var wg sync.WaitGroup
	for g := 0; g < pushers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < pushesPerGorou; i++ {
				// Distinct tokens spread the pushes across warm slots;
				// a second context ensures no cross-context bleed.
				token := fmt.Sprintf("warm-ue-%d-%d", g, i)
				ws.push(key, token, markedSnap(g*pushesPerGorou+i))
				if i%3 == 0 {
					ws.push(other, token, markedSnap(-1))
				}
				// Interleave reads with the writes: freshest must always
				// see a complete snapshot, never a torn one.
				if i%7 == 0 {
					if snap, ok := ws.freshest(key); ok && snap.Learner.Learned < 0 {
						t.Errorf("freshest(%v) returned a snapshot pushed to another context", key)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// After the storm, one serialized push must win outright regardless of
	// which slot its token hashes into.
	const finalMark = pushers*pushesPerGorou + 1
	ws.push(key, "warm-ue-final", markedSnap(finalMark))
	snap, ok := ws.freshest(key)
	if !ok {
		t.Fatalf("freshest(%v) found nothing after %d pushes", key, pushers*pushesPerGorou+1)
	}
	if snap.Learner.Learned != finalMark {
		t.Fatalf("freshest(%v) = mark %d, want the final serialized push %d",
			key, snap.Learner.Learned, finalMark)
	}

	// The second context saw only its own pushes.
	snap, ok = ws.freshest(other)
	if !ok || snap.Learner.Learned != -1 {
		t.Fatalf("freshest(%v) = (%v, %v), want the -1 marker", other, snap.Learner.Learned, ok)
	}

	// all() must agree with freshest for every context.
	for k, got := range ws.all() {
		want, ok := ws.freshest(k)
		if !ok || got.Learner.Learned != want.Learner.Learned {
			t.Fatalf("all()[%v] = mark %d, freshest = (%d, %v)", k, got.Learner.Learned, want.Learner.Learned, ok)
		}
	}
}

// TestWarmStoreFreshestRacingSlot pins every push to one slot (same token)
// and races stamps deliberately: whatever interleaving occurs, the stored
// stamp must be the maximum ever offered, so a final serialized push wins.
func TestWarmStoreFreshestRacingSlot(t *testing.T) {
	ws := newWarmStore()
	key := warmKey{carrier: "OpX", arch: "LTE"}
	const token = "one-slot-token"

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				ws.push(key, token, markedSnap(g*300+i))
			}
		}(g)
	}
	wg.Wait()

	ws.push(key, token, markedSnap(9999))
	snap, ok := ws.freshest(key)
	if !ok || snap.Learner.Learned != 9999 {
		t.Fatalf("freshest after racing single-slot pushes = (%v, %v), want (9999, true)", snap.Learner.Learned, ok)
	}
}

// TestParkEvictsSoonestWhenFull overfills a MaxParked table: the entry
// closest to expiry is evicted — not the oldest insert, and never the
// newcomer — and the gauges move as park accounts an eviction (one
// parked_expired, parked_sessions held at the bound).
func TestParkEvictsSoonestWhenFull(t *testing.T) {
	srv, err := ListenWith("127.0.0.1:0", Options{ResumeGrace: time.Hour, MaxParked: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	park := func(token string) {
		prog, err := core.New(core.Config{
			EventConfigs: ran.EventConfigsFor("OpX", cellular.ArchNSA),
			Arch:         cellular.ArchNSA,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.park(&parkedSession{token: token, prog: prog, carrier: "OpX", arch: cellular.ArchNSA}, false)
	}
	park("first")
	park("second")
	// Make the later insert the soonest to expire, so eviction by insert
	// order and eviction by expiry pick different victims.
	sh := srv.parked.shard("second")
	sh.mu.Lock()
	sh.m["second"].expires = time.Now().Add(time.Minute)
	sh.mu.Unlock()
	if st := srv.Stats(); st.Parked != 2 || st.ParkedExpired != 0 {
		t.Fatalf("before overflow: parked %d, expired %d; want 2, 0", st.Parked, st.ParkedExpired)
	}

	park("newcomer")
	now := time.Now()
	for token, want := range map[string]bool{"first": true, "second": false, "newcomer": true} {
		if got := srv.parked.has(token, now); got != want {
			t.Errorf("after overflow: %q parked = %v, want %v", token, got, want)
		}
	}
	if st := srv.Stats(); st.Parked != 2 || st.ParkedExpired != 1 {
		t.Fatalf("after overflow: parked %d, expired %d; want 2, 1", st.Parked, st.ParkedExpired)
	}
}

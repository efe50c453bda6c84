package serve

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro"
)

// TestServeCrashMidRetry kills the worker mid-slice on a fixed cadence:
// each death takes the live machine but leaves the session resting at
// the pre-slice barrier, the slice re-runs in place (the machine is
// rebuilt by re-execution from the anchor), and the final result is
// exactly the uninterrupted one.
func TestServeCrashMidRetry(t *testing.T) {
	maker := StripeProgram(2, 5, 128)
	s := newTestServer(t, Config{Slice: 1, Fault: func(ev FaultEvent) FaultAction {
		if ev.Slice%3 == 1 {
			return FaultCrashMid
		}
		return FaultNone
	}})
	s.Register("stripe", maker)

	for i := 0; i < 3; i++ {
		id, err := s.Open("acme", "stripe", uint64(40+i))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run("acme", id)
		if err != nil {
			t.Fatal(err)
		}
		if want := directResult(t, maker, uint64(40+i)); res != want {
			t.Errorf("session %d: served %+v after mid-slice deaths, direct %+v", i, res, want)
		}
	}
	st := s.Stats()
	if st.WorkerDeaths == 0 || st.Retries == 0 {
		t.Errorf("cadence never killed a worker: %+v", st)
	}
	if st.Failovers != 0 || st.BitEqFail != 0 {
		t.Errorf("mid-slice deaths should retry in place: %+v", st)
	}
}

// TestServeCrashAfterFailover kills the worker after its slice lands:
// the server re-admits the session from the pre-slice manifest on a
// fresh Session, re-runs the slice, and asserts the re-run's checkpoint
// digest equals the dead worker's — the determinism claim checked on
// every failover, including the final result-bearing slice.
func TestServeCrashAfterFailover(t *testing.T) {
	const phases = 5
	maker := StripeProgram(2, phases, 128)
	var slices atomic.Int64
	s := newTestServer(t, Config{Slice: 1, Fault: func(ev FaultEvent) FaultAction {
		// Kill phase-0, a middle, and the final slice of the first session.
		switch slices.Add(1) - 1 {
		case 0, 2, phases - 1:
			return FaultCrashAfter
		}
		return FaultNone
	}})
	s.Register("stripe", maker)

	id, err := s.Open("acme", "stripe", 99)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run("acme", id)
	if err != nil {
		t.Fatal(err)
	}
	if want := directResult(t, maker, 99); res != want {
		t.Errorf("served %+v after failovers, direct %+v", res, want)
	}
	st := s.Stats()
	if st.Failovers != 3 || st.BitEqOK != 3 {
		t.Errorf("want 3 digest-checked failovers, got %+v", st)
	}
	if st.BitEqFail != 0 {
		t.Errorf("failover re-run diverged from dead worker's attempt: %+v", st)
	}
}

// TestServeFaultStorm is the randomized soak: three tenants' sessions
// run concurrently while a seeded generator kills workers mid- and
// post-slice and the driver fires evictions and GCs into the middle of
// it. Every final result must still be bit-identical to an
// uninterrupted private run, every failover digest must match, and GC
// must never strand a live session's chain.
func TestServeFaultStorm(t *testing.T) {
	const (
		tenants  = 3
		perT     = 5
		phases   = 6
		residCap = 2
	)
	maker := StripeProgram(3, phases, 192)
	store := repro.NewMemStore()

	// hookRng is touched only by the fault hook, which runs under the
	// server mutex; opRng only by the driver goroutine.
	hookRng := rand.New(rand.NewSource(0xD57E))
	opRng := rand.New(rand.NewSource(0x57012))

	s := newTestServer(t, Config{
		Store: store, Workers: 3, Resident: residCap, Slice: 1,
		Fault: func(ev FaultEvent) FaultAction {
			switch r := hookRng.Float64(); {
			case r < 0.15:
				return FaultCrashMid
			case r < 0.30:
				return FaultCrashAfter
			}
			return FaultNone
		},
	})
	s.Register("stripe", maker)

	type req struct {
		tenant string
		id     SessionID
		arg    uint64
	}
	var reqs []req
	for ti := 0; ti < tenants; ti++ {
		tenant := fmt.Sprintf("t%d", ti)
		for k := 0; k < perT; k++ {
			arg := uint64(7000 + 100*ti + k)
			id, err := s.Open(tenant, "stripe", arg)
			if err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, req{tenant, id, arg})
		}
	}

	results := make([]repro.RunResult, len(reqs))
	var wg sync.WaitGroup
	var pending atomic.Int64
	pending.Store(int64(len(reqs)))
	for i, r := range reqs {
		wg.Add(1)
		go func(i int, r req) {
			defer wg.Done()
			defer pending.Add(-1)
			res, err := s.Run(r.tenant, r.id)
			if err != nil {
				t.Errorf("run %s: %v", r.id, err)
				return
			}
			results[i] = res
		}(i, r)
	}

	// The driver: while runs are in flight, randomly evict resting
	// sessions and garbage-collect the shared store mid-storm. Both are
	// safe at any moment — they can change latency, never results.
	gcMid := 0
	for pending.Load() > 0 {
		switch r := reqs[opRng.Intn(len(reqs))]; opRng.Intn(4) {
		case 0:
			// Busy or unknown sessions refuse; resting ones suspend.
			_ = s.Evict(r.tenant, r.id)
		case 1:
			if _, err := s.GC(); err != nil {
				t.Errorf("mid-storm GC: %v", err)
			}
			gcMid++
		default:
			runtime.Gosched()
		}
	}
	wg.Wait()

	for i, r := range reqs {
		if want := directResult(t, maker, r.arg); results[i] != want {
			t.Errorf("session %s: served %+v, direct %+v", r.id, results[i], want)
		}
	}
	st := s.Stats()
	if st.Completed != int64(len(reqs)) {
		t.Errorf("completed %d of %d", st.Completed, len(reqs))
	}
	if st.BitEqFail != 0 {
		t.Errorf("%d failover digest mismatches", st.BitEqFail)
	}
	if st.WorkerDeaths == 0 || st.Retries == 0 || st.Failovers == 0 || st.BitEqOK == 0 {
		t.Errorf("storm injected no faults: %+v", st)
	}
	if st.Evictions == 0 || st.Resumes == 0 {
		t.Errorf("storm never cycled sessions through the store: %+v", st)
	}
	t.Logf("storm: %d slices, %d deaths (%d retries, %d failovers), %d evictions, %d resumes, %d mid-storm GCs",
		st.Slices, st.WorkerDeaths, st.Retries, st.Failovers, st.Evictions, st.Resumes, gcMid)

	// GC never strands a live chain: push every session's final image,
	// collect, and re-load every chain end to end from the swept store.
	for _, r := range reqs {
		if err := s.Evict(r.tenant, r.id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.GC(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	heads := make(map[SessionID]repro.ChunkKey, len(s.sessions))
	for _, c := range s.sortedSessions() {
		if m := c.sess.LastManifest(); m != nil {
			heads[c.id] = m.Key()
		}
	}
	s.mu.Unlock()
	if len(heads) != len(reqs) {
		t.Fatalf("%d chain heads for %d sessions", len(heads), len(reqs))
	}
	for id, key := range heads {
		m, err := repro.LoadManifest(store, key)
		if err != nil {
			t.Errorf("session %s: chain head lost after GC: %v", id, err)
			continue
		}
		if _, err := repro.LoadImage(store, m); err != nil {
			t.Errorf("session %s: image unloadable after GC: %v", id, err)
		}
	}
}

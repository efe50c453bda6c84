package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
)

// faultStore is a store whose Put can be made to fail or to wait, so a
// test can hold a session's Suspend inside the store and look at the
// server from outside, or make an eviction fail. Everything else is the
// wrapped store's.
type faultStore struct {
	repro.ChunkStore
	failPuts atomic.Int32 // this many more Puts return errPut

	mu      sync.Mutex
	gate    chan struct{} // while non-nil, a Put waits until it is closed
	entered chan struct{} // closed by the first Put to find the gate shut
}

var errPut = errors.New("faultStore: put refused")

func (f *faultStore) Put(key repro.ChunkKey, b []byte) error {
	if f.failPuts.Add(-1) >= 0 {
		return errPut
	}
	f.mu.Lock()
	gate, entered := f.gate, f.entered
	f.entered = nil
	f.mu.Unlock()
	if gate != nil {
		if entered != nil {
			close(entered)
		}
		<-gate
	}
	return f.ChunkStore.Put(key, b)
}

// shut makes Puts wait; the returned channel closes when the first one does.
func (f *faultStore) shut() <-chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gate, f.entered = make(chan struct{}), make(chan struct{})
	return f.entered
}

// open lets the waiting Puts, and every later one, through.
func (f *faultStore) open() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.gate != nil {
		close(f.gate)
		f.gate = nil
	}
}

// strand opens a session for tenant, caps the tenant's wall budget at
// one slice and runs it: the request is refused after the first slice
// and the session rests open, its machine parked at barrier 1 with
// nothing waiting on it — an eviction candidate. The cap is lifted again
// before returning. The server's clock must advance on every reading.
func strand(t *testing.T, s *Server, tenant string, arg uint64) SessionID {
	t.Helper()
	s.SetCaps(tenant, TenantCaps{MaxWallNS: 1})
	id, err := s.Open(tenant, "stripe", arg)
	if err != nil {
		t.Fatal(err)
	}
	var ce *CapError
	if _, err := s.Run(tenant, id); !errors.As(err, &ce) || ce.Cap != "wall" {
		t.Fatalf("run under a one-slice budget: %v", err)
	}
	s.SetCaps(tenant, TenantCaps{})
	return id
}

// TestEvictionHoldsNoLock is the tentpole's contract in executable form:
// a victim's Suspend is held inside the store, and meanwhile the server
// is looked at from outside. Everything but the victim carries on; the
// victim is busy, a Run for it waits and is not lost, and GC waits
// behind the save. At the commit before evictions left the dispatch lock
// the first Stats call below never returns.
func TestEvictionHoldsNoLock(t *testing.T) {
	maker := StripeProgram(2, 4, 128)
	wantVictim, wantOther := directResult(t, maker, 1), directResult(t, maker, 2)
	store := &faultStore{ChunkStore: repro.NewMemStore()}
	var now atomic.Int64
	s := newTestServer(t, Config{Store: store, Workers: 2, Resident: 1, Slice: 1,
		Clock: func() int64 { return now.Add(1000) }})
	s.Register("stripe", maker)
	t.Cleanup(store.open) // before Shutdown: a worker parked in the store never exits

	// within fails the test unless f returns soon: the calls below block
	// for as long as the gate is shut if they need a lock the eviction holds.
	within := func(what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { defer close(done); f() }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s did not return while an eviction was inside the store", what)
		}
	}
	// eventually polls a condition on the server's own state.
	eventually := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
			s.mu.Lock()
			ok := cond()
			s.mu.Unlock()
			if ok {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("never saw: %s", what)
			}
		}
	}

	victim := strand(t, s, "victim", 1)
	entered := store.shut()

	// Another tenant's first slice puts a second machine over the cap of
	// one; its worker picks the victim and goes into the store with it.
	type outcome struct {
		res repro.RunResult
		err error
	}
	run := func(tenant string, id SessionID) <-chan outcome {
		ch := make(chan outcome, 1)
		go func() {
			res, err := s.Run(tenant, id)
			ch <- outcome{res, err}
		}()
		return ch
	}
	other, err := s.Open("other", "stripe", 2)
	if err != nil {
		t.Fatal(err)
	}
	otherRun := run("other", other)
	within("the victim's save reaching the store", func() { <-entered })

	// (a) The registry is open for business.
	within("Stats", func() {
		if st := s.Stats(); st.ResidentSessions < 1 || st.Evictions != 0 {
			t.Errorf("mid-eviction: %+v; the victim counts as resident until its machine is down", st)
		}
	})
	within("Open and CloseSession of another session", func() {
		id, err := s.Open("other", "stripe", 3)
		if err != nil {
			t.Error(err)
			return
		}
		if err := s.CloseSession("other", id); err != nil {
			t.Error(err)
		}
	})
	// (b) The other worker finishes the other session, bit-exact.
	within("another session's Run", func() {
		got := <-otherRun
		if got.err != nil || got.res != wantOther {
			t.Errorf("served %+v, %v beside an eviction; direct %+v", got.res, got.err, wantOther)
		}
	})
	// (c) The victim is busy, (d) a Run for it waits, (e) GC waits.
	within("CloseSession and Evict of the victim", func() {
		if err := s.CloseSession("victim", victim); err == nil {
			t.Error("closed a session whose eviction is in flight")
		}
		if err := s.Evict("victim", victim); err == nil {
			t.Error("evicted a session whose eviction is in flight")
		}
	})
	victimRun := run("victim", victim)
	eventually("the victim's Run registered with its eviction", func() bool { return s.sessions[victim].wanted })
	gcDone := make(chan error, 1)
	go func() {
		_, err := s.GC()
		gcDone <- err
	}()
	eventually("GC waiting behind the eviction", func() bool { return s.gcWait })
	select {
	case got := <-victimRun:
		t.Fatalf("the victim ran while its state was leaving the machine: %+v, %v", got.res, got.err)
	case err := <-gcDone:
		t.Fatalf("GC swept while a checkpoint was being written: %v", err)
	default:
	}

	store.open()
	within("GC after the save landed", func() {
		if err := <-gcDone; err != nil {
			t.Error(err)
		}
	})
	within("the victim's Run after the save landed", func() {
		got := <-victimRun
		if got.err != nil || got.res != wantVictim {
			t.Errorf("victim served %+v, %v; direct %+v", got.res, got.err, wantVictim)
		}
	})
	st := s.Stats()
	if st.Evictions != 1 || st.Resumes != 1 || st.EvictNS <= 0 || st.ResidentSessions != 0 {
		t.Errorf("after the eviction: %+v; want one eviction with its wall time, one resume, nothing resident", st)
	}
}

// TestFailedEvictionTearsMachineDown: an eviction whose save fails
// finishes its session with the store's error — and takes the machine
// down with it, so that what Stats counts as resident is what is live.
// (It used to zero the session's pages and leave the machine parked:
// one machine over the cap per failed eviction, until the client closed
// the session.)
func TestFailedEvictionTearsMachineDown(t *testing.T) {
	const workers = 2
	maker := StripeProgram(2, 4, 128)
	base := runtime.NumGoroutine()
	store := &faultStore{ChunkStore: repro.NewMemStore()}
	var now atomic.Int64
	s, err := New(Config{Store: store, SessionOpts: testOpts(), Workers: workers, Resident: 1, Slice: 1,
		Clock: func() int64 { return now.Add(1000) }})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	s.Register("stripe", maker)

	// The first other session runs alone: its first slice puts a second
	// machine over the cap of one, the victim is the only one resting, and
	// the first Put of its eviction fails. Each of the rest then runs one
	// slice alone, under a tenant of its own, putting a second machine
	// over the cap and evicting the one before it through a store that
	// works again — so the evictions happen however fast a slice is — and
	// then they run to the end concurrently.
	victim := strand(t, s, "victim", 1)
	store.failPuts.Store(1)

	const others = 4
	results := make([]repro.RunResult, others)
	var wg sync.WaitGroup
	run := func(i int, id SessionID) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.Run(fmt.Sprint("other", i), id)
			if err != nil {
				t.Errorf("run %s: %v", id, err)
			}
			results[i] = res
		}()
	}
	id, err := s.Open("other0", "stripe", 10)
	if err != nil {
		t.Fatal(err)
	}
	run(0, id)
	wg.Wait()
	// The victim's save may still be on its way to the Put that fails —
	// nothing waits for it but its own Run.
	if _, err := s.Run("victim", victim); !errors.Is(err, errPut) {
		t.Fatalf("the victim's Run: %v, want the store's error", err)
	}
	stranded := make([]SessionID, others)
	for i := 1; i < others; i++ {
		stranded[i] = strand(t, s, fmt.Sprint("other", i), uint64(10+i))
	}
	for i := 1; i < others; i++ {
		run(i, stranded[i])
	}
	wg.Wait()
	for i, got := range results {
		if want := directResult(t, maker, uint64(10+i)); got != want {
			t.Errorf("session %d beside a failed eviction: served %+v, direct %+v", i, got, want)
		}
	}

	st := s.Stats()
	if st.ResidentSessions != 0 || st.ResidentPages != 0 || st.Evictions == 0 {
		t.Fatalf("after the storm: %+v; want nothing resident and the later evictions counted", st)
	}
	// Nothing is resident, so nothing may be live: the workers are the
	// only goroutines the server still has.
	waitGoroutines(t, base+workers, "with no session resident")
	if err := s.CloseSession("victim", victim); err != nil {
		t.Fatal(err)
	}
	s.Shutdown()
	waitGoroutines(t, base, "after Shutdown")
}

// TestEvictionKeepsQueueOrder: with one worker the schedule is a function
// of the request sequence, evictions included. Two sessions of one tenant
// share one machine's worth of residency, so every slice evicts the other
// session — which is queued, right behind it. The victim keeps its place:
// the two alternate, as they did when the save ran under the lock. (Taken
// out of the queue and pushed back after its save, the victim would fall
// behind the session that evicted it: a, b, b, a, a, b, b, a.) And a
// queued victim whose save fails is failed where it stands, never
// dispatched again, and does not stay busy.
func TestEvictionKeepsQueueOrder(t *testing.T) {
	maker := StripeProgram(2, 4, 128)
	for _, tc := range []struct {
		name     string
		failPuts int32
		order    string
	}{
		{"saved", 0, "abababab"},
		{"failed", 1, "abbbb"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := &faultStore{ChunkStore: repro.NewMemStore()}
			store.failPuts.Store(tc.failPuts) // slices put nothing: the first Put is the first eviction's
			var order []byte
			s := newTestServer(t, Config{Store: store, Workers: 1, Resident: 1, Slice: 1,
				Fault: func(ev FaultEvent) FaultAction {
					order = append(order, "ab"[ev.Session[len(ev.Session)-1]-'0'])
					return FaultNone
				}})
			s.Register("stripe", maker)
			var ids [2]SessionID
			for i := range ids {
				id, err := s.Open("t", "stripe", uint64(i))
				if err != nil {
					t.Fatal(err)
				}
				ids[i] = id
			}
			// Both requests are in the queue before the worker looks at it.
			s.mu.Lock()
			s.queue.push(s.sessions[ids[0]])
			s.queue.push(s.sessions[ids[1]])
			s.cond.Broadcast()
			s.mu.Unlock()

			resA, errA := s.Run("t", ids[0])
			resB, errB := s.Run("t", ids[1])
			if errB != nil || resB != directResult(t, maker, 1) {
				t.Errorf("b served %+v, %v", resB, errB)
			}
			if tc.failPuts == 0 && (errA != nil || resA != directResult(t, maker, 0)) {
				t.Errorf("a served %+v, %v", resA, errA)
			}
			if tc.failPuts > 0 && !errors.Is(errA, errPut) {
				t.Errorf("a's Run: %v, want the store's error", errA)
			}
			if string(order) != tc.order {
				t.Errorf("dispatch order %s, want %s", order, tc.order)
			}
			if st := s.Stats(); st.ResidentSessions != 0 || (tc.failPuts == 0 && st.Evictions != 5) {
				t.Errorf("after both ran: %+v", st)
			}
			for _, id := range ids {
				if err := s.CloseSession("t", id); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestWorkerSetsSavingVictimAside: with more than one goroutine serving,
// a queued victim can reach the head of the queue before its save has
// landed. The worker that pops it does not run it and does not lose it:
// the eviction queues it again once the machine is down.
func TestWorkerSetsSavingVictimAside(t *testing.T) {
	maker := StripeProgram(2, 4, 128)
	store := &faultStore{ChunkStore: repro.NewMemStore()}
	var now atomic.Int64
	s := newTestServer(t, Config{Store: store, Workers: 1, Slice: 1,
		Clock: func() int64 { return now.Add(1000) }})
	s.Register("stripe", maker)
	t.Cleanup(store.open)

	id := strand(t, s, "t", 1)
	entered := store.shut()
	// Queued and marked in one critical section, as evictOverCap finds a
	// queued victim; the idle worker is woken to find it at the head.
	evicted := make(chan error, 1)
	go func() {
		s.mu.Lock()
		c := s.sessions[id]
		s.queue.push(c)
		s.cond.Broadcast()
		err := s.evict(c)
		s.mu.Unlock()
		evicted <- err
	}()
	<-entered
	for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
		s.mu.Lock()
		c := s.sessions[id]
		aside := c.wanted && !c.queued
		s.mu.Unlock()
		if aside {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the worker never set the saving victim aside")
		}
	}
	if st := s.Stats(); st.Slices != 1 {
		t.Fatalf("a slice ran on a session whose state was leaving the machine: %+v", st)
	}
	store.open()
	if err := <-evicted; err != nil {
		t.Fatal(err)
	}
	if res, err := s.Run("t", id); err != nil || res != directResult(t, maker, 1) {
		t.Fatalf("served %+v, %v after being set aside", res, err)
	}
	if st := s.Stats(); st.Evictions != 1 || st.Resumes != 1 {
		t.Fatalf("after the eviction: %+v; want one eviction and one resume", st)
	}
}

// waitGoroutines waits for the goroutine count to fall to max (exiting
// goroutines are counted until retired) and fails with every stack if it
// does not.
func waitGoroutines(t *testing.T, max int, when string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > max && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > max {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines %s, want at most %d\n%s", got, when, max, buf[:runtime.Stack(buf, true)])
	}
}

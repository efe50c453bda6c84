package repro

// Lifecycle tests for the stepped Session API: the explicit
// Idle/Running/Quiescent/Suspended/Closed state machine, typed
// StateErrors on misuse, and the bit-identity of stepped, suspended and
// retried executions against the uninterrupted run — the property the
// serving fabric's eviction and failover paths lean on.

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/castore"
)

// stepOpts is the machine shape every stepped test uses; resumes must
// match the capture shape.
func stepOpts() []SessionOption {
	return []SessionOption{WithMachine(MachineConfig{CPUsPerNode: 4})}
}

// stepToEnd drives a bound session to completion with the given budget
// and returns the final StepResult.
func stepToEnd(t *testing.T, s *Session, budget int) StepResult {
	t.Helper()
	for i := 0; ; i++ {
		sr, err := s.Step(budget)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if sr.Done {
			return sr
		}
		if i > 100 {
			t.Fatal("program never finished")
		}
	}
}

func TestSessionStateMachine(t *testing.T) {
	p := arrayProgram(3, 4, 512, -1, nil)
	s := mustSession(t, stepOpts()...)
	if got := s.State(); got != StateIdle {
		t.Fatalf("fresh state = %v, want Idle", got)
	}
	// A one-shot capture hands its image back and keeps nothing: only a
	// bound session is ever Quiescent.
	if _, err := s.RunToCheckpoint(p, 2); err != nil {
		t.Fatal(err)
	}
	if got := s.State(); got != StateIdle {
		t.Fatalf("state after RunToCheckpoint = %v, want Idle", got)
	}
	if err := s.Bind(p); err != nil {
		t.Fatal(err)
	}
	if got, ph := s.State(), s.Phase(); got != StateQuiescent || ph != 0 {
		t.Fatalf("bound state = %v at phase %d, want Quiescent at 0", got, ph)
	}
	sr, err := s.Step(2)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Done || sr.Phase != 2 || sr.Pages == 0 {
		t.Fatalf("after Step(2): %+v", sr)
	}
	if d, err := s.Digest(); err != nil || d.IsZero() {
		t.Fatalf("Digest after Step(2): %v, %v", d, err)
	}
	if got := s.State(); got != StateQuiescent {
		t.Fatalf("state after partial step = %v, want Quiescent", got)
	}

	store := NewMemStore()
	m, err := s.Suspend(store)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.State(); got != StateSuspended {
		t.Fatalf("state after Suspend = %v, want Suspended", got)
	}
	if lm := s.LastManifest(); lm == nil || lm.Key() != m.Key() {
		t.Fatal("LastManifest does not return the suspend manifest")
	}

	// Step transparently reloads from the store and finishes.
	final := stepToEnd(t, s, 1)
	if final.Phase != 4 || !final.Done {
		t.Fatalf("final step: %+v", final)
	}
	if got := s.State(); got != StateQuiescent {
		t.Fatalf("state after final step = %v, want Quiescent", got)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.State(); got != StateClosed {
		t.Fatalf("state after Close = %v, want Closed", got)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close = %v, want idempotent nil", err)
	}
}

func TestSessionStateErrors(t *testing.T) {
	p := arrayProgram(2, 3, 256, -1, nil)
	asState := func(t *testing.T, err error, op string, st SessionState) {
		t.Helper()
		var se *StateError
		if !errors.As(err, &se) {
			t.Fatalf("%s: error %v (%T), want *StateError", op, err, err)
		}
		if se.Op != op || se.State != st {
			t.Fatalf("%s: got op %q in state %v, want state %v", op, se.Op, se.State, st)
		}
	}

	t.Run("step unbound", func(t *testing.T) {
		s := mustSession(t, stepOpts()...)
		_, err := s.Step(1)
		asState(t, err, "Step", StateIdle)
	})
	t.Run("suspend idle", func(t *testing.T) {
		s := mustSession(t, stepOpts()...)
		_, err := s.Suspend(NewMemStore())
		asState(t, err, "Suspend", StateIdle)
	})
	t.Run("double bind", func(t *testing.T) {
		s := mustSession(t, stepOpts()...)
		if err := s.Bind(p); err != nil {
			t.Fatal(err)
		}
		asState(t, s.Bind(p), "Bind", StateQuiescent)
	})
	t.Run("one-shot on bound session", func(t *testing.T) {
		s := mustSession(t, stepOpts()...)
		if err := s.Bind(p); err != nil {
			t.Fatal(err)
		}
		_, err := s.RunProgram(p)
		asState(t, err, "RunProgram", StateQuiescent)
		_, err = s.RunToCheckpoint(p, 1)
		asState(t, err, "RunToCheckpoint", StateQuiescent)
		_, err = s.Suspend(NewMemStore())
		asState(t, err, "Suspend", StateQuiescent) // nothing has run: nothing to save
	})
	t.Run("closed", func(t *testing.T) {
		s := mustSession(t, stepOpts()...)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		asState(t, s.Bind(p), "Bind", StateClosed)
		_, err := s.Step(1)
		asState(t, err, "Step", StateClosed)
		_, err = s.RunProgram(p)
		asState(t, err, "RunProgram", StateClosed)
	})
	t.Run("mid-run", func(t *testing.T) {
		// A phase that parks lets the test observe the Running state from
		// outside: Suspend and a second run must fail immediately with
		// *StateError instead of queueing behind the in-flight run.
		entered := make(chan struct{})
		release := make(chan struct{})
		s := mustSession(t, stepOpts()...)
		blocked := Program{
			Phases: 1,
			Phase: func(rt *RT, ph int) error {
				close(entered)
				<-release
				return nil
			},
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.RunProgram(blocked); err != nil {
				t.Errorf("blocked run: %v", err)
			}
		}()
		<-entered
		if got := s.State(); got != StateRunning {
			t.Errorf("state mid-run = %v, want Running", got)
		}
		_, err := s.Suspend(NewMemStore())
		asState(t, err, "Suspend", StateRunning)
		_, err = s.RunToCheckpoint(blocked, 1)
		asState(t, err, "RunToCheckpoint", StateRunning)
		close(release)
		wg.Wait()
	})
}

// mustDigest returns the digest of the checkpoint s rests at.
func mustDigest(t *testing.T, s *Session) ChunkKey {
	t.Helper()
	d, err := s.Digest()
	if err != nil {
		t.Fatalf("Digest: %v", err)
	}
	return d
}

// imageDigest is the digest Session.Digest would report for img.
func imageDigest(t *testing.T, img *Image) ChunkKey {
	t.Helper()
	raw, err := img.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return castore.KeyOf(raw)
}

// TestSteppedBitIdentical checks the core serving property: a program
// driven in timeslices — any budget, with eviction to a store between
// every slice — finishes with results bit-identical to the
// uninterrupted run, and rests at bit-identical checkpoints along the
// way.
func TestSteppedBitIdentical(t *testing.T) {
	p := arrayProgram(4, 6, 2048, -1, nil)
	want := keyOf(mustSession(t, stepOpts()...).RunProgram(p))

	// A resident session is one machine running through from Bind, parked
	// between slices: its state at barrier k is the one-shot run's state
	// there, whatever the slicing and however often it was observed. So
	// its digest at k equals the digest of RunToCheckpoint(p, k)'s image —
	// across execution paths, not merely across re-runs of one schedule.
	ref := map[int]ChunkKey{}
	for k := 1; k <= p.Phases; k++ {
		img, err := mustSession(t, stepOpts()...).RunToCheckpoint(p, k)
		if err != nil {
			t.Fatal(err)
		}
		ref[k] = imageDigest(t, img)
	}
	for _, budget := range []int{1, 2, 3, 4, 7} {
		s := mustSession(t, stepOpts()...)
		if err := s.Bind(p); err != nil {
			t.Fatal(err)
		}
		for {
			sr, err := s.Step(budget)
			if err != nil {
				t.Fatalf("budget %d: %v", budget, err)
			}
			if got := mustDigest(t, s); got != ref[sr.Phase] {
				t.Fatalf("budget %d: digest at barrier %d differs from RunToCheckpoint's image", budget, sr.Phase)
			}
			if sr.Done {
				if got := keyOf(sr.Result, nil); got != want {
					t.Fatalf("budget %d: stepped result %+v, want %+v", budget, got, want)
				}
				break
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Evict to a store after every slice; the chain resumes transparently,
	// the result is the uninterrupted one, and every resting digest is
	// RunToCheckpoint's too: a machine restored from an image rests in the
	// state of one that ran through.
	store := NewMemStore()
	s := mustSession(t, stepOpts()...)
	if err := s.Bind(p); err != nil {
		t.Fatal(err)
	}
	for {
		sr, err := s.Step(1)
		if err != nil {
			t.Fatal(err)
		}
		if got := mustDigest(t, s); got != ref[sr.Phase] {
			t.Fatalf("evict-every-slice schedule: digest at barrier %d differs from RunToCheckpoint's image", sr.Phase)
		}
		if sr.Done {
			if got := keyOf(sr.Result, nil); got != want {
				t.Fatalf("evicted run result %+v, want %+v", got, want)
			}
			break
		}
		if _, err := s.Suspend(store); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBindSuspendedHandoff moves a half-run session between Session
// values through the store — the serving fabric's admission path — and
// checks the handed-off half matches the uninterrupted run.
func TestBindSuspendedHandoff(t *testing.T) {
	p := arrayProgram(3, 5, 1024, -1, nil)
	want := keyOf(mustSession(t, stepOpts()...).RunProgram(p))
	store := NewMemStore()

	for cut := 1; cut < 5; cut++ {
		first := mustSession(t, stepOpts()...)
		if err := first.Bind(p); err != nil {
			t.Fatal(err)
		}
		if sr, err := first.Step(cut); err != nil || sr.Phase != cut {
			t.Fatalf("cut %d: step: %+v, %v", cut, sr, err)
		}
		m, err := first.Suspend(store)
		if err != nil {
			t.Fatal(err)
		}
		if err := first.Close(); err != nil {
			t.Fatal(err)
		}

		second := mustSession(t, stepOpts()...)
		if err := second.BindSuspended(p, store, m); err != nil {
			t.Fatal(err)
		}
		if got, ph := second.State(), second.Phase(); got != StateSuspended || ph != -1 {
			t.Fatalf("cut %d: admitted state %v phase %d, want Suspended/-1", cut, got, ph)
		}
		final := stepToEnd(t, second, 2)
		if got := keyOf(final.Result, nil); got != want {
			t.Fatalf("cut %d: handed-off result %+v, want %+v", cut, got, want)
		}
		// A second Suspend chains onto the admitted manifest.
		m2, err := second.Suspend(store)
		if err != nil {
			t.Fatal(err)
		}
		if parent, ok := m2.Parent(); !ok || parent != m.Key() {
			t.Fatalf("cut %d: final manifest does not chain onto the admitted one", cut)
		}
	}
}

// TestStepRetryAfterCrash re-runs a slice whose phase panicked mid-way
// — the killed-worker path; the kernel converts the panic into a trap
// status Step surfaces as an error — and checks the retry is
// bit-identical to an undisturbed first attempt.
func TestStepRetryAfterCrash(t *testing.T) {
	crash := true
	base := arrayProgram(3, 4, 1024, -1, nil)
	inner := base.Phase
	base.Phase = func(rt *RT, ph int) error {
		if ph == 2 && crash {
			crash = false
			panic("worker killed")
		}
		return inner(rt, ph)
	}

	ref := mustSession(t, stepOpts()...)
	refProg := arrayProgram(3, 4, 1024, -1, nil)
	want := keyOf(ref.RunProgram(refProg))

	s := mustSession(t, stepOpts()...)
	if err := s.Bind(base); err != nil {
		t.Fatal(err)
	}
	if sr, err := s.Step(2); err != nil || sr.Phase != 2 {
		t.Fatalf("pre-crash step: %+v, %v", sr, err)
	}
	preState, prePhase := s.State(), s.Phase()
	if _, err := s.Step(1); err == nil {
		t.Fatal("crashing slice did not surface an error")
	}
	if got, ph := s.State(), s.Phase(); got != preState || ph != prePhase {
		t.Fatalf("state after crash = %v at %d, want %v at %d (pre-slice rest intact)", got, ph, preState, prePhase)
	}
	final := stepToEnd(t, s, 1)
	if got := keyOf(final.Result, nil); got != want {
		t.Fatalf("retried run result %+v, want %+v", got, want)
	}
}

// TestStepResultRedelivery steps a finished session again: delivery is
// idempotent — the session kept its result — and leaves the final
// checkpoint's digest alone.
func TestStepResultRedelivery(t *testing.T) {
	p := arrayProgram(2, 3, 512, -1, nil)
	s := mustSession(t, stepOpts()...)
	if err := s.Bind(p); err != nil {
		t.Fatal(err)
	}
	first := stepToEnd(t, s, 2)
	before := mustDigest(t, s)
	again, err := s.Step(1)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Done || again.Result != first.Result || again.Phase != first.Phase {
		t.Fatalf("redelivery differs: first %+v, again %+v", first, again)
	}
	if mustDigest(t, s) != before {
		t.Fatal("redelivery changed the resting checkpoint's digest")
	}
}

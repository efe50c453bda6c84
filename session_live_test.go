package repro

// Tests for the resident form of a bound Session: a live machine whose
// root parks at phase barriers. They are the safety net under "a slice
// costs the program's phases plus one handoff": every slicing, every
// suspend point and every kill point must still produce the
// uninterrupted run's bits; no goroutine may outlive its session; and
// the lifecycle must hold up under concurrent misuse.

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// killOnce wraps p so that the first execution of phase killAt panics —
// a worker killed mid-slice. killAt < 0 never kills.
func killOnce(p Program, killAt int) Program {
	armed := killAt >= 0
	inner := p.Phase
	p.Phase = func(rt *RT, ph int) error {
		if armed && ph == killAt {
			armed = false
			panic(fmt.Sprintf("worker killed in phase %d", ph))
		}
		return inner(rt, ph)
	}
	return p
}

// schedule is one way of driving a bound session to completion: a step
// budget, the barriers it is suspended at (a bitmask over barriers
// 1..Phases-1), and the phase whose first execution is killed.
type schedule struct {
	budget  int
	suspend uint
	killAt  int
}

// runSchedule drives p under sc, retrying a slice that dies, and
// returns the final result plus the digest observed at every barrier
// the session rested at. Digest is a pure observation, so taking it
// everywhere changes nothing downstream.
func runSchedule(t *testing.T, p Program, sc schedule) (RunResult, map[int]ChunkKey) {
	t.Helper()
	s := mustSession(t, stepOpts()...)
	defer s.Close()
	if err := s.Bind(killOnce(p, sc.killAt)); err != nil {
		t.Fatal(err)
	}
	store := NewMemStore()
	digests := map[int]ChunkKey{}
	deaths := 0
	for {
		state, phase := s.State(), s.Phase()
		sr, err := s.Step(sc.budget)
		if err != nil {
			if deaths++; deaths > 1 {
				t.Fatalf("%+v: second death: %v", sc, err)
			}
			// The slice died; the session rests where it rested.
			if got, ph := s.State(), s.Phase(); got != state || (phase >= 0 && ph != phase) {
				t.Fatalf("%+v: after a death: %v at %d, want %v at %d", sc, got, ph, state, phase)
			}
			continue
		}
		digests[sr.Phase] = mustDigest(t, s)
		if sr.Done {
			if (sc.killAt >= 0) != (deaths == 1) {
				t.Fatalf("%+v: %d deaths", sc, deaths)
			}
			return sr.Result, digests
		}
		if sr.Pages < 1 {
			t.Fatalf("%+v: resting at barrier %d with footprint %d", sc, sr.Phase, sr.Pages)
		}
		if sc.suspend&(1<<uint(sr.Phase)) != 0 {
			if _, err := s.Suspend(store); err != nil {
				t.Fatalf("%+v: suspend at %d: %v", sc, sr.Phase, err)
			}
		}
	}
}

// TestLiveSessionEverySchedule is the property the resident form must
// keep: for every budget, every subset of barriers suspended at, and a
// kill injected at every phase, the stepped Ret/VT/Insns (and traffic)
// equal the uninterrupted RunProgram's — and the retry that replays
// from the anchor rests, barrier by barrier, at checkpoints
// byte-identical to the undisturbed run of the same schedule (same
// anchor, same barrier: same digest).
func TestLiveSessionEverySchedule(t *testing.T) {
	const phases = 4
	p := arrayProgram(3, phases, 512, -1, nil)
	want := keyOf(mustSession(t, stepOpts()...).RunProgram(p))

	for budget := 1; budget <= phases; budget++ {
		for suspend := uint(0); suspend < 1<<phases; suspend += 2 { // bit k = barrier k, k in 1..phases-1
			calm, calmDigests := runSchedule(t, p, schedule{budget, suspend, -1})
			if got := keyOf(calm, nil); got != want {
				t.Fatalf("budget %d suspend %04b: result %+v, want %+v", budget, suspend, got, want)
			}
			for kill := 0; kill < phases; kill++ {
				sc := schedule{budget, suspend, kill}
				res, digests := runSchedule(t, p, sc)
				if got := keyOf(res, nil); got != want {
					t.Fatalf("%+v: result %+v, want %+v", sc, got, want)
				}
				if len(digests) != len(calmDigests) {
					t.Fatalf("%+v: rested at %d barriers, undisturbed run at %d", sc, len(digests), len(calmDigests))
				}
				for k, d := range digests {
					if calmDigests[k] != d {
						t.Fatalf("%+v: digest at barrier %d differs from the undisturbed run's", sc, k)
					}
				}
			}
		}
	}
}

// TestLiveSessionRecordedTrace: a recorded session stepped, suspended
// and resumed yields the log an uninterrupted recording yields — the
// live machine records as it goes, and a rebuild splices the image's
// prefix.
func TestLiveSessionRecordedTrace(t *testing.T) {
	mk := func() *Session { return mustSession(t, WithRecord()) }
	p := deviceProgram(3, 4)
	result := p.Result
	p.Result = func(rt *RT) uint64 { // a device read after the last barrier
		return result(rt)*31 + uint64(rt.Env().ClockNow())
	}
	full := mk()
	res, err := full.RunProgram(p)
	want := keyOf(res, err)
	wantLog, err := full.TraceLog().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for _, suspendAt := range []int{0, 1, 2, 3} { // 0 = never
		s := mk()
		if err := s.Bind(p); err != nil {
			t.Fatal(err)
		}
		store := NewMemStore()
		for {
			sr, err := s.Step(1)
			if err != nil {
				t.Fatal(err)
			}
			if sr.Done {
				if got := keyOf(sr.Result, nil); got != want {
					t.Fatalf("suspend at %d: result %+v, want %+v", suspendAt, got, want)
				}
				break
			}
			if sr.Phase == suspendAt {
				if _, err := s.Suspend(store); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Digesting a finished session re-executes it up to the last
		// barrier, which must not replace the finished run's log with the
		// re-execution's shorter one.
		for _, digested := range []bool{false, true} {
			if digested {
				mustDigest(t, s)
			}
			gotLog, err := s.TraceLog().Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotLog, wantLog) {
				t.Fatalf("suspend at %d (digested %v): stepped log differs:\n got %s\nwant %s",
					suspendAt, digested, gotLog, wantLog)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// consoleProgram writes "phase k" to the console in each of its phases.
func consoleProgram(phases int) Program {
	return Program{
		Phases: phases,
		Phase: func(rt *RT, k int) error {
			rt.Env().ConsoleWrite([]byte(fmt.Sprintf("phase %d\n", k)))
			return nil
		},
	}
}

// consoleOnce is what consoleProgram(3) prints when every phase runs
// once.
const consoleOnce = "phase 0\nphase 1\nphase 2\n"

// TestLiveSessionFinishedDigestIsSilent: digesting or suspending a
// finished session re-executes its phases from the anchor to capture the
// final barrier, and that re-execution must not print them again.
func TestLiveSessionFinishedDigestIsSilent(t *testing.T) {
	var out bytes.Buffer
	s := mustSession(t, WithConsole(nil, &out))
	defer s.Close()
	if err := s.Bind(consoleProgram(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(1); err != nil {
		t.Fatal(err)
	}
	store := NewMemStore()
	if _, err := s.Suspend(store); err != nil {
		t.Fatal(err)
	}
	stepToEnd(t, s, 2)
	mustDigest(t, s)
	if _, err := s.Suspend(store); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != consoleOnce {
		t.Fatalf("console output %q, want %q", got, consoleOnce)
	}
}

// TestLiveSessionRetryIsSilent: the retry of a slice that died
// re-executes the phases before it from the anchor, and only the
// requested slice may reach the console — whether the retry is a Step or
// a Digest taken first.
func TestLiveSessionRetryIsSilent(t *testing.T) {
	for _, digestFirst := range []bool{false, true} {
		var out bytes.Buffer
		s := mustSession(t, WithConsole(nil, &out))
		if err := s.Bind(killOnce(consoleProgram(3), 1)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Step(1); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Step(1); err == nil {
			t.Fatal("killed slice reported no error")
		}
		if digestFirst {
			mustDigest(t, s)
		}
		stepToEnd(t, s, 1)
		if got := out.String(); got != consoleOnce {
			t.Fatalf("digest first %v: console output %q, want %q", digestFirst, got, consoleOnce)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// settleGoroutines waits for the goroutine count to come back down to
// base (exiting goroutines are counted until the scheduler retires
// them) and returns the count it settled at.
func settleGoroutines(base int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLiveSessionLeaksNoGoroutines: a resident session is a parked
// machine — a root goroutine plus whatever spaces the program left
// stopped — and every way of ending residency must take all of it down:
// Close, Suspend, finishing, and a slice dying.
func TestLiveSessionLeaksNoGoroutines(t *testing.T) {
	// A placement spanning both nodes leaves a permanently parked
	// delegate space, so a leak here would be of more than the root.
	opts := []SessionOption{WithMachine(MachineConfig{Nodes: 2, CPUsPerNode: 2})}
	place := func(i int) int { return i % 2 }
	prog := func(killAt int) Program { return killOnce(arrayProgram(4, 4, 512, -1, place), killAt) }
	base := runtime.NumGoroutine()

	check := func(what string) {
		t.Helper()
		if n := settleGoroutines(base); n > base {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines, baseline %d\n%s", what, n, base, buf[:runtime.Stack(buf, true)])
		}
	}
	parked := func(killAt int) *Session {
		t.Helper()
		s := mustSession(t, opts...)
		if err := s.Bind(prog(killAt)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Step(2); err != nil {
			t.Fatal(err)
		}
		if runtime.NumGoroutine() <= base {
			t.Fatal("a resident session holds no goroutine: nothing is parked")
		}
		return s
	}

	s := parked(-1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	check("after Close")

	s = parked(-1)
	if _, err := s.Suspend(NewMemStore()); err != nil {
		t.Fatal(err)
	}
	check("after Suspend")
	if _, err := s.Step(1); err != nil { // rebuilt from the store
		t.Fatal(err)
	}
	stepToEnd(t, s, 1)
	check("after the final slice")
	if _, err := s.Digest(); err != nil { // re-derived: machine built, captured, torn down
		t.Fatal(err)
	}
	check("after Digest of a finished session")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = parked(2)
	if _, err := s.Step(1); err == nil {
		t.Fatal("killed slice reported no error")
	}
	check("after a mid-slice death")
	if _, err := s.Step(1); err != nil { // the retry rebuilds and parks again
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	check("after Close of the retried session")
}

// TestSessionAPIHammer calls every exported Session method from
// concurrent goroutines while one driver steps the session to the end
// (in the style of fastrand's TestRandConcurrent: no choreography, just
// contention). Under -race this is the check that the lifecycle's
// TryLock discipline really does serialize the machine handoff. Calls
// may succeed or be refused; a refusal must be a typed *StateError, and
// the driver's final result must be the uninterrupted run's.
func TestSessionAPIHammer(t *testing.T) {
	const hammers = 6
	iters := 400
	if testing.Short() {
		iters = 100
	}
	p := arrayProgram(3, 6, 512, -1, nil)
	want := keyOf(mustSession(t, stepOpts()...).RunProgram(p))

	for round := 0; round < 3; round++ {
		s := mustSession(t, stepOpts()...)
		store := NewMemStore()
		if err := s.Bind(p); err != nil {
			t.Fatal(err)
		}
		// One slice first, so Suspend/Digest always have a checkpoint to
		// take and can only be refused for lifecycle reasons.
		if _, err := s.Step(1); err != nil {
			t.Fatal(err)
		}
		m0, err := s.Suspend(store)
		if err != nil {
			t.Fatal(err)
		}

		refused := func(op string, err error) {
			var se *StateError
			if err != nil && !errors.As(err, &se) {
				t.Errorf("%s: error %v (%T), want nil or *StateError", op, err, err)
			}
		}
		var wg sync.WaitGroup
		for h := 0; h < hammers; h++ {
			wg.Add(1)
			go func(h int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					switch (i + h) % 11 {
					case 0:
						_ = s.State()
					case 1:
						_ = s.Phase()
					case 2:
						_ = s.TraceLog()
					case 3:
						_ = s.LastManifest()
					case 4:
						_, err := s.Digest()
						refused("Digest", err)
					case 5:
						_, err := s.Suspend(store)
						refused("Suspend", err)
					case 6:
						refused("Bind", s.Bind(p))
					case 7:
						refused("BindSuspended", s.BindSuspended(p, store, m0))
					case 8:
						_, err := s.RunProgram(p)
						refused("RunProgram", err)
					case 9:
						_, err := s.RunToCheckpoint(p, 1)
						refused("RunToCheckpoint", err)
					case 10:
						// A competing stepper: it may win slices from the driver.
						_, err := s.Step(1)
						refused("Step", err)
					}
				}
			}(h)
		}

		// The driver: step to the end, yielding whenever a hammer holds
		// the session.
		var final StepResult
		for !final.Done {
			sr, err := s.Step(1)
			var se *StateError
			switch {
			case err == nil:
				final = sr
			case errors.As(err, &se) && se.State == StateRunning:
				runtime.Gosched()
			default:
				t.Fatalf("round %d: driver step: %v", round, err)
			}
		}
		wg.Wait()
		if got := keyOf(final.Result, nil); got != want {
			t.Fatalf("round %d: hammered result %+v, want %+v", round, got, want)
		}

		// Everyone closes at once; afterwards everything is refused, typed.
		for h := 0; h < hammers; h++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				refused("Close", s.Close())
			}()
		}
		wg.Wait()
		if err := s.Close(); err != nil {
			t.Fatalf("round %d: final Close: %v", round, err)
		}
		var se *StateError
		if _, err := s.Step(1); !errors.As(err, &se) || se.State != StateClosed {
			t.Fatalf("round %d: Step after Close: %v", round, err)
		}
	}
}

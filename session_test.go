package repro

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/imgenc"
)

// --- helpers -----------------------------------------------------------------

// resultKey is everything a checkpoint/resume must reproduce bit-exactly.
type resultKey struct {
	Ret    uint64
	VT     int64
	Insns  int64
	Msgs   int64
	Pages  int64
	ErrStr string
}

func keyOf(res RunResult, err error) resultKey {
	k := resultKey{Ret: res.Ret, VT: res.VT, Insns: res.Insns,
		Msgs: res.Net.Msgs, Pages: res.Net.Pages}
	if err != nil {
		k.ErrStr = err.Error()
	} else if res.Err != nil {
		k.ErrStr = res.Err.Error()
	}
	return k
}

// mustSession builds a session or fails the test.
func mustSession(t testing.TB, opts ...SessionOption) *Session {
	t.Helper()
	s, err := NewSession(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// roundTripImage serializes and reparses an image, simulating a fresh
// process that received the bytes.
func roundTripImage(t testing.TB, img *Image) *Image {
	t.Helper()
	data, err := img.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	img2, err := DecodeImage(data)
	if err != nil {
		t.Fatal(err)
	}
	return img2
}

// roundTripStore ships an image through a fresh content-addressed
// store — SaveImage, manifest bytes, LoadImage — asserting the loaded
// image is byte-identical to the flat form, and returns the store and
// the reparsed manifest. Resuming from them therefore exercises the
// chunked path and the flat path at once: they are literally the same
// bytes.
func roundTripStore(t testing.TB, img *Image) (BlobStore, *Manifest) {
	t.Helper()
	store := NewMemStore()
	m, err := SaveImage(store, img, nil)
	if err != nil {
		t.Fatalf("SaveImage: %v", err)
	}
	m2, err := DecodeManifest(m.Bytes())
	if err != nil {
		t.Fatalf("DecodeManifest: %v", err)
	}
	flat, err := img.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := mustLoadImage(t, store, m2).Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(flat, loaded) {
		t.Fatalf("store round trip changed the image: %d bytes vs %d", len(loaded), len(flat))
	}
	return store, m2
}

// suspendAt binds p on a fresh session, steps it to barrier k and
// suspends it into store. The error is the program's, from a run that
// fails before barrier k.
func suspendAt(t testing.TB, opts []SessionOption, store BlobStore, p Program, k int) (*Manifest, error) {
	t.Helper()
	s := mustSession(t, opts...)
	defer s.Close()
	if err := s.Bind(p); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(k); err != nil {
		return nil, err
	}
	m, err := s.Suspend(store)
	if err != nil {
		t.Fatalf("Suspend at %d: %v", k, err)
	}
	return m, nil
}

// resumeFrom admits the checkpoint m names on a fresh session and steps
// it to the end in one slice, returning the session for its trace log.
func resumeFrom(t testing.TB, opts []SessionOption, store BlobStore, m *Manifest, p Program) (*Session, RunResult, error) {
	t.Helper()
	s := mustSession(t, opts...)
	if err := s.BindSuspended(p, store, m); err != nil {
		t.Fatal(err)
	}
	sr, err := s.Step(p.Phases + 1)
	return s, sr.Result, err
}

// shipped resumes the checkpoint m names in store the way a fresh
// process that received it would: as flat image bytes, through a fresh
// store (roundTripStore), on a fresh session.
func shipped(t testing.TB, opts []SessionOption, store BlobStore, m *Manifest, p Program) (*Session, RunResult, error) {
	t.Helper()
	store2, m2 := roundTripStore(t, roundTripImage(t, mustLoadImage(t, store, m)))
	return resumeFrom(t, opts, store2, m2, p)
}

// checkpointEverywhere verifies the full equivalence contract for a
// phased program under a session configuration: for every barrier k,
// suspending there, shipping the image through bytes, and resuming in a
// fresh session yields a result bit-identical to the uninterrupted run
// (including any error, e.g. a conflict report).
func checkpointEverywhere(t *testing.T, opts []SessionOption, p Program) {
	t.Helper()
	res, err := mustSession(t, opts...).RunProgram(p)
	want := keyOf(res, err)

	for k := 1; k <= p.Phases; k++ {
		store := NewMemStore()
		m, err := suspendAt(t, opts, store, p, k)
		if err != nil {
			// A program that fails before barrier k cannot checkpoint
			// there; the uninterrupted run must have failed identically.
			if want.ErrStr == "" || err.Error() != want.ErrStr {
				t.Fatalf("barrier %d: checkpoint run failed with %v, uninterrupted with %q", k, err, want.ErrStr)
			}
			continue
		}
		_, res, rerr := shipped(t, opts, store, m, p)
		if got := keyOf(res, rerr); got != want {
			t.Fatalf("resume from barrier %d diverged:\n got %+v\nwant %+v", k, got, want)
		}
	}

	// Checkpointing must be a pure observation: capturing an image at
	// every barrier while stepping to completion changes nothing.
	obs := mustSession(t, opts...)
	if err := obs.Bind(p); err != nil {
		t.Fatal(err)
	}
	for {
		sr, err := obs.Step(1)
		if err != nil || sr.Done {
			if got := keyOf(sr.Result, err); got != want {
				t.Fatalf("checkpointing run diverged:\n got %+v\nwant %+v", got, want)
			}
			return
		}
		mustDigest(t, obs)
	}
}

// --- workload 1: private-workspace fork/join over a shared array ------------

// arrayProgram stripes updates over a shared array with ParallelDo,
// folding per-thread results and the array into a checksum. With
// conflictAt >= 0, that phase deliberately double-writes one word so a
// deterministic ConflictError surfaces.
func arrayProgram(threads, phases, words int, conflictAt int, place func(i int) int) Program {
	var arr, acc Addr
	return Program{
		Phases: phases,
		Layout: func(rt *RT) {
			arr = rt.Alloc(uint64(8*words), 8)
			acc = rt.Alloc(8, 8)
		},
		Init: func(rt *RT) {
			for i := 0; i < words; i++ {
				rt.Env().WriteU64(arr+Addr(8*i), uint64(i)*2654435761)
			}
			rt.Env().WriteU64(acc, 1)
		},
		Phase: func(rt *RT, p int) error {
			body := func(t *Thread) uint64 {
				lo, hi := t.ID*words/threads, (t.ID+1)*words/threads
				var sum uint64
				for i := lo; i < hi; i++ {
					a := arr + Addr(8*i)
					v := t.Env().ReadU64(a)*6364136223846793005 + uint64(p) + 1
					t.Env().WriteU64(a, v)
					sum += v
				}
				if p == conflictAt {
					t.Env().WriteU64(acc, uint64(t.ID)) // every thread: conflict
				}
				return sum
			}
			var rets []uint64
			var err error
			if place != nil {
				rets, err = rt.ParallelDoOn(threads, place, body)
			} else {
				rets, err = rt.ParallelDo(threads, body)
			}
			if err != nil {
				return err
			}
			h := rt.Env().ReadU64(acc)
			for _, r := range rets {
				h = h*31 + r
			}
			rt.Env().WriteU64(acc, h)
			return nil
		},
		Result: func(rt *RT) uint64 {
			h := rt.Env().ReadU64(acc)
			for i := 0; i < words; i += 7 {
				h = h*1099511628211 + rt.Env().ReadU64(arr+Addr(8*i))
			}
			return h
		},
	}
}

func TestSessionCheckpointResumeArray(t *testing.T) {
	opts := []SessionOption{WithMachine(MachineConfig{CPUsPerNode: 4})}
	checkpointEverywhere(t, opts, arrayProgram(4, 4, 4096, -1, nil))
}

func TestSessionCheckpointResumeConflictReport(t *testing.T) {
	// The conflict fires in phase 2; resuming from barriers 1 and 2 must
	// reproduce the identical conflict report, and later barriers are
	// unreachable (verified against the uninterrupted failure).
	opts := []SessionOption{WithMachine(MachineConfig{CPUsPerNode: 2})}
	p := arrayProgram(3, 4, 512, 2, nil)
	res, err := mustSession(t, opts...).RunProgram(p)
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("uninterrupted run: want conflict, got %v (res %+v)", err, res)
	}
	checkpointEverywhere(t, opts, p)
}

// TestSessionCheckpointResumeMultiNodeTree checkpoints a 3-node program
// at every barrier. Spread over the nodes, each phase is collected
// through the remote nodes' delegates, which every checkpoint must
// carry; confined to one remote node, the root collects it directly.
func TestSessionCheckpointResumeMultiNodeTree(t *testing.T) {
	for _, c := range []struct {
		name  string
		place func(i int) int
	}{
		{"spread", func(i int) int { return i % 3 }},
		{"remote-node", func(int) int { return 2 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			opts := []SessionOption{WithMachine(MachineConfig{Nodes: 3, CPUsPerNode: 2})}
			checkpointEverywhere(t, opts, arrayProgram(6, 3, 2048, -1, c.place))
		})
	}
}

// --- workload 2: dsched (legacy mutex code) across phases --------------------

// dschedProgram runs a mutex-protected accumulator under the
// deterministic scheduler in every phase, carrying one Sched across all
// phases — and, through Snapshot/Restore, across the checkpoint.
func dschedProgram(t *testing.T, sess func() *Session, threads, phases int) Program {
	var cell Addr
	var sched *Sched
	cfg := SchedConfig{Quantum: 3000}
	mkSched := func(rt *RT) {
		var err error
		sched, err = NewSchedWith(rt, cfg)
		if err != nil {
			t.Fatal(err)
		}
	}
	var mu Mutex
	body := func(p int) func(st *SchedThread) {
		return func(st *SchedThread) {
			for i := 0; i < 4; i++ {
				st.Lock(mu)
				v := st.Env().ReadU64(cell)
				st.Env().Tick(int64(50 * (st.ID + 1)))
				st.Env().WriteU64(cell, v*31+uint64(st.ID+p)+1)
				st.Unlock(mu)
				st.Yield()
			}
		}
	}
	return Program{
		Phases: phases,
		Layout: func(rt *RT) { cell = rt.Alloc(8, 8) },
		Init: func(rt *RT) {
			rt.Env().WriteU64(cell, 7)
			mkSched(rt)
			mu = sched.NewMutex()
		},
		Phase: func(rt *RT, p int) error {
			return sched.Run(threads, func(st *SchedThread) { body(p)(st) })
		},
		Result: func(rt *RT) uint64 {
			st := sched.Stats()
			return rt.Env().ReadU64(cell)*1000003 + uint64(st.Rounds)*31 + uint64(st.ThreadQuanta)
		},
		Snapshot: func(rt *RT) map[string][]byte {
			st, err := sched.ExportState()
			if err != nil {
				t.Errorf("sched export: %v", err)
				return nil
			}
			b, err := json.Marshal(st)
			if err != nil {
				t.Errorf("sched marshal: %v", err)
				return nil
			}
			return map[string][]byte{"sched": b}
		},
		Restore: func(rt *RT, sections map[string][]byte) error {
			var st SchedState
			if err := json.Unmarshal(sections["sched"], &st); err != nil {
				return err
			}
			var err error
			sched, err = AttachSched(rt, cfg, st)
			if err != nil {
				return err
			}
			mu = Mutex(0)
			return nil
		},
	}
}

func TestSessionCheckpointResumeDsched(t *testing.T) {
	opts := []SessionOption{WithMachine(MachineConfig{CPUsPerNode: 4})}
	sess := func() *Session { return mustSession(t, opts...) }
	p := dschedProgram(t, sess, 3, 4)
	res, err := sess().RunProgram(p)
	if err != nil || res.Err != nil {
		t.Fatalf("dsched run: %v / %v", err, res.Err)
	}
	want := keyOf(res, err)
	for k := 1; k <= p.Phases; k++ {
		store := NewMemStore()
		m, err := suspendAt(t, opts, store, p, k)
		if err != nil {
			t.Fatalf("checkpoint at %d: %v", k, err)
		}
		_, res, rerr := resumeFrom(t, opts, store, m, p)
		if got := keyOf(res, rerr); got != want {
			t.Fatalf("dsched resume from barrier %d diverged:\n got %+v\nwant %+v", k, got, want)
		}
	}
}

// --- workload 3: recorded-trace run ------------------------------------------

// deviceProgram folds clock and entropy readings into the state each
// phase, so the device cursors matter to the result.
func deviceProgram(threads, phases int) Program {
	var cell Addr
	base := arrayProgram(threads, phases, 256, -1, nil)
	inner := base.Phase
	return Program{
		Phases: phases,
		Layout: func(rt *RT) {
			base.Layout(rt)
			cell = rt.Alloc(8, 8)
		},
		Init: base.Init,
		Phase: func(rt *RT, p int) error {
			if err := inner(rt, p); err != nil {
				return err
			}
			h := rt.Env().ReadU64(cell)
			h = h*31 + uint64(rt.Env().ClockNow())
			h = h*31 + rt.Env().RandUint64()
			rt.Env().WriteU64(cell, h)
			return nil
		},
		Result: func(rt *RT) uint64 {
			return base.Result(rt)*131 + rt.Env().ReadU64(cell)
		},
	}
}

func TestSessionCheckpointResumeRecordedTrace(t *testing.T) {
	rec := []SessionOption{WithRecord()}
	p := deviceProgram(3, 4)

	full := mustSession(t, rec...)
	res, err := full.RunProgram(p)
	if err != nil || res.Err != nil {
		t.Fatalf("recorded run: %v / %v", err, res.Err)
	}
	want := keyOf(res, err)
	wantLog, err := full.TraceLog().Marshal()
	if err != nil {
		t.Fatal(err)
	}

	for k := 1; k <= p.Phases; k++ {
		store := NewMemStore()
		m, err := suspendAt(t, rec, store, p, k)
		if err != nil {
			t.Fatalf("checkpoint at %d: %v", k, err)
		}
		if mustLoadImage(t, store, m).TracePrefix == nil {
			t.Fatalf("record-mode image at %d carries no trace prefix", k)
		}
		resumed, res, rerr := shipped(t, rec, store, m, p)
		if got := keyOf(res, rerr); got != want {
			t.Fatalf("recorded resume from %d diverged:\n got %+v\nwant %+v", k, got, want)
		}
		// The spliced log must equal the uninterrupted recording bit for
		// bit: prefix re-recorded by the fast-forward, continuation live.
		gotLog, err := resumed.TraceLog().Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotLog, wantLog) {
			t.Fatalf("spliced trace log at %d differs:\n got %s\nwant %s", k, gotLog, wantLog)
		}
	}

	// And a replayed session checkpoints/resumes mid-log too.
	restored, err := UnmarshalTrace(wantLog)
	if err != nil {
		t.Fatal(err)
	}
	replay := []SessionOption{WithReplay(restored)}
	store := NewMemStore()
	m, err := suspendAt(t, replay, store, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, res, rerr := shipped(t, replay, store, m, p)
	if got := keyOf(res, rerr); got != want {
		t.Fatalf("replayed resume diverged:\n got %+v\nwant %+v", got, want)
	}
}

// Console input splices across a checkpoint too: a recorded run that
// consumes multi-kilobyte console input before and after the barrier
// resumes with the same bytes, the same chunking, and a spliced log
// bit-identical to the uninterrupted recording.
func TestSessionCheckpointResumeConsoleSplice(t *testing.T) {
	input := func() string {
		b := make([]byte, 11000) // > the console's 4096-byte read granularity
		for i := range b {
			b[i] = byte('a' + i%23)
		}
		return string(b)
	}
	// Each session gets the whole input afresh: the resumed one's
	// console is fast-forwarded past what the checkpointed run consumed.
	opts := func() []SessionOption {
		return []SessionOption{WithRecord(), WithConsole(strings.NewReader(input()), nil)}
	}
	var cell Addr
	p := Program{
		Phases: 3,
		Layout: func(rt *RT) { cell = rt.Alloc(8, 8) },
		Init:   func(rt *RT) { rt.Env().WriteU64(cell, 3) },
		Phase: func(rt *RT, phase int) error {
			buf := make([]byte, 2500+1700*phase) // crosses the 4096 granularity
			h := rt.Env().ReadU64(cell)
			for read := 0; read < len(buf); {
				n := rt.Env().ConsoleRead(buf[read:])
				if n == 0 {
					break
				}
				for _, c := range buf[read : read+n] {
					h = h*31 + uint64(c)
				}
				read += n
			}
			rt.Env().WriteU64(cell, h)
			return nil
		},
		Result: func(rt *RT) uint64 { return rt.Env().ReadU64(cell) },
	}

	full := mustSession(t, opts()...)
	res, err := full.RunProgram(p)
	if err != nil || res.Err != nil {
		t.Fatalf("console run: %v / %v", err, res.Err)
	}
	want := keyOf(res, err)
	wantLog, err := full.TraceLog().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(full.TraceLog().Input) == 0 {
		t.Fatal("no console input recorded")
	}

	for k := 1; k <= p.Phases; k++ {
		// A one-shot run takes the checkpoint: a bound session reaches the
		// last barrier only by finishing, and capturing a finished session
		// re-executes it, which re-reads live console input.
		img, err := mustSession(t, opts()...).RunToCheckpoint(p, k)
		if err != nil {
			t.Fatalf("checkpoint at %d: %v", k, err)
		}
		store, m := roundTripStore(t, roundTripImage(t, img))
		resumed, res, rerr := resumeFrom(t, opts(), store, m, p)
		if got := keyOf(res, rerr); got != want {
			t.Fatalf("console resume from %d diverged:\n got %+v\nwant %+v", k, got, want)
		}
		gotLog, err := resumed.TraceLog().Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotLog, wantLog) {
			t.Fatalf("spliced console log at %d differs from the uninterrupted recording", k)
		}
	}
}

// --- property test: random workloads × random barriers ----------------------

func TestSessionCheckpointResumeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	iters := 12
	if testing.Short() {
		iters = 4
	}
	for it := 0; it < iters; it++ {
		threads := 2 + rng.Intn(4)
		phases := 2 + rng.Intn(4)
		words := 256 << rng.Intn(3)
		nodes := []int{1, 1, 2, 3}[rng.Intn(4)]
		// Spread threads are collected through delegates; threads all on
		// the last node are collected directly.
		spread := nodes > 1 && rng.Intn(2) == 0
		conflictAt := -1
		if rng.Intn(3) == 0 {
			conflictAt = rng.Intn(phases)
		}
		var place func(i int) int
		if spread {
			place = func(i int) int { return i % nodes }
		} else if nodes > 1 {
			place = func(int) int { return nodes - 1 }
		}
		opts := []SessionOption{
			WithMachine(MachineConfig{Nodes: nodes, CPUsPerNode: 1 + rng.Intn(3)}),
		}
		p := arrayProgram(threads, phases, words, conflictAt, place)

		res, err := mustSession(t, opts...).RunProgram(p)
		want := keyOf(res, err)
		k := 1 + rng.Intn(phases) // random barrier
		store := NewMemStore()
		m, err := suspendAt(t, opts, store, p, k)
		if err != nil {
			if want.ErrStr == "" || err.Error() != want.ErrStr {
				t.Fatalf("iter %d: checkpoint failed %v, uninterrupted %q", it, err, want.ErrStr)
			}
			continue
		}
		_, res, rerr := shipped(t, opts, store, m, p)
		if got := keyOf(res, rerr); got != want {
			t.Fatalf("iter %d (threads=%d phases=%d nodes=%d spread=%v conflict=%d ck=%d) diverged:\n got %+v\nwant %+v",
				it, threads, phases, nodes, spread, conflictAt, k, got, want)
		}
	}
}

// --- image format and API-surface tests --------------------------------------

func TestSessionImageRoundTripAndRejects(t *testing.T) {
	img, err := mustSession(t).
		RunToCheckpoint(arrayProgram(2, 2, 128, -1, nil), 1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := img.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if data[4] != ImageVersion {
		t.Fatalf("session image version byte = %d, want %d", data[4], ImageVersion)
	}
	var ie *ImageError
	for _, cut := range []int{0, 4, len(data) / 2, len(data) - 1} {
		if _, err := DecodeImage(data[:cut]); !errors.As(err, &ie) {
			t.Fatalf("truncated at %d: got %v", cut, err)
		}
	}
	bad := append([]byte(nil), data...)
	bad[len(bad)/3] ^= 0x20
	if _, err := DecodeImage(bad); !errors.As(err, &ie) {
		t.Fatalf("corrupt: got %v", err)
	}
	// Resuming under a mismatched machine fails with the typed kernel
	// error.
	img2, err := DecodeImage(data)
	if err != nil {
		t.Fatal(err)
	}
	var mm *ImageMismatchError
	store, m := roundTripStore(t, img2)
	_, _, err = resumeFrom(t, []SessionOption{WithMachine(MachineConfig{Nodes: 2})},
		store, m, arrayProgram(2, 2, 128, -1, nil))
	if !errors.As(err, &mm) {
		t.Fatalf("mismatched resume: got %v, want *ImageMismatchError", err)
	}
}

// The byte after the allocator cursor once recorded whether collection
// ran through delegates. The runtime now picks its collector from each
// collection's placement, so the byte is written 0 and ignored on
// decode: an image written with it set still decodes, to the same image.
func TestDecodeImageIgnoresRetiredCollectorByte(t *testing.T) {
	img, err := mustSession(t).RunToCheckpoint(arrayProgram(2, 2, 128, -1, nil), 1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := img.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	const off = 4 + 1 + 4 + 4 + 8 + 4 // magic, version, phase, base, size, cursor
	if data[off] != 0 {
		t.Fatalf("tree-join byte written as %d, want 0", data[off])
	}
	set := append([]byte(nil), data[:len(data)-4]...)
	set[off] = 1
	got, err := DecodeImage(imgenc.Seal(set))
	if err != nil {
		t.Fatal(err)
	}
	again, err := got.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("an image with the tree-join byte set does not decode to the same image")
	}
}

// A CRC-valid session image can carry any runtime region its author
// likes. One that core.New could not have produced must fail the resume
// with the typed attach error before the program's Restore sees it: the dsched
// program below would otherwise size its table epochs from the region (an
// 8 TiB makeslice that kills the process, not the call).
func TestSessionResumeRejectsCraftedRegion(t *testing.T) {
	opts := []SessionOption{WithMachine(MachineConfig{CPUsPerNode: 4})}
	sess := func() *Session { return mustSession(t, opts...) }
	p := dschedProgram(t, sess, 3, 2)
	img, err := sess().RunToCheckpoint(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		base Addr
		size uint64
	}{
		{"8 TiB of epochs", img.RT.Base, 1 << 62},
		{"page-aligned only", img.RT.Base + 0x1000, 0x3000},
		{"past 4 GiB", img.RT.Base, 1 << 32},
	} {
		// The cursor keeps its offset, so only the region is implausible.
		bad := *img
		bad.RT.Base, bad.RT.Size = c.base, c.size
		bad.RT.Next = c.base + (img.RT.Next - img.RT.Base)
		data, err := bad.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeImage(data)
		if err != nil {
			t.Fatalf("%s: the image is structurally valid, DecodeImage = %v", c.name, err)
		}
		store, m := roundTripStore(t, dec)
		_, _, err = resumeFrom(t, opts, store, m, p)
		var se *core.StateError
		if !errors.As(err, &se) || se.Field != "region" {
			t.Errorf("%s: resume = %v, want *core.StateError{region}", c.name, err)
		}
	}
}

func TestSessionConfigValidation(t *testing.T) {
	var ce *ConfigError
	if _, err := NewSession(WithMachine(MachineConfig{Nodes: -2})); !errors.As(err, &ce) || ce.Field != "Machine.Nodes" {
		t.Fatalf("negative nodes: %v", err)
	}
	if _, err := NewSession(WithSharedSize(1 << 40)); !errors.As(err, &ce) || ce.Field != "SharedSize" {
		t.Fatalf("oversized region: %v", err)
	}
	if _, err := NewSession(WithRecord(), WithReplay(&TraceLog{})); !errors.As(err, &ce) {
		t.Fatalf("record+replay: %v", err)
	}
}

// The legacy wrappers validate instead of silently defaulting.
func TestLegacyWrapperValidation(t *testing.T) {
	res := Run(Options{}, func(rt *RT) uint64 {
		// A negative quantum is a typed error.
		var se *SchedConfigError
		if _, err := NewSchedWith(rt, SchedConfig{Quantum: -1}); !errors.As(err, &se) || se.Field != "Quantum" {
			panic(fmt.Sprintf("NewSchedWith(Quantum -1) = %v, want *SchedConfigError{Quantum}", err))
		}
		// Zero still selects the documented default.
		if s, err := NewSchedWith(rt, SchedConfig{}); err != nil || s == nil {
			panic(fmt.Sprintf("NewSchedWith(zero) = %v, %v", s, err))
		}
		return 1
	})
	if res.Err != nil || res.Ret != 1 {
		t.Fatalf("legacy validation run: %+v", res)
	}

	res = Run(Options{}, func(rt *RT) uint64 { return 0 })
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if _, err := NewSession(); err != nil {
		t.Fatalf("zero-config session invalid: %v", err)
	}
}

// Session.Run honors the composed configuration the free functions used
// to take separately: record/replay through the session reproduces runs.
func TestSessionRunRecordReplay(t *testing.T) {
	prog := func(rt *RT) uint64 {
		h := uint64(7)
		for i := 0; i < 5; i++ {
			h = h*31 + rt.Env().RandUint64() + uint64(rt.Env().ClockNow())
		}
		return h
	}
	rec := mustSession(t, WithRecord())
	res1 := rec.Run(prog)
	if res1.Err != nil {
		t.Fatal(res1.Err)
	}
	if got := len(rec.TraceLog().Rand); got != 5 {
		t.Fatalf("recorded %d rand readings, want 5", got)
	}
	rep := mustSession(t, WithReplay(rec.TraceLog()))
	res2 := rep.Run(prog)
	if res2.Ret != res1.Ret || res2.VT != res1.VT {
		t.Fatalf("replayed session diverged: %+v vs %+v", res2, res1)
	}
}

func TestSessionConsole(t *testing.T) {
	var out strings.Builder
	s := mustSession(t, WithConsole(strings.NewReader("ping"), &out))
	res := s.Run(func(rt *RT) uint64 {
		buf := make([]byte, 16)
		n := rt.Env().ConsoleRead(buf)
		rt.Env().ConsoleWrite([]byte("got:" + string(buf[:n])))
		return uint64(n)
	})
	if res.Err != nil || res.Ret != 4 || out.String() != "got:ping" {
		t.Fatalf("console session: %+v out=%q", res, out.String())
	}
}

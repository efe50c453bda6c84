package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro"
	"repro/internal/castore"
	"repro/internal/detmake"
)

// testOpts is the machine shape every serve test uses; the server's
// resumes must match the shape its checkpoints were captured under.
func testOpts() []repro.SessionOption {
	return []repro.SessionOption{repro.WithMachine(repro.MachineConfig{CPUsPerNode: 4})}
}

// directResult runs maker(arg) uninterrupted on a private session — the
// reference every served result must equal bit-for-bit.
func directResult(t testing.TB, maker ProgramMaker, arg uint64) repro.RunResult {
	t.Helper()
	sess, err := repro.NewSession(testOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.RunProgram(maker(arg))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// maxStepPages steps maker(arg) to completion with budget 1 and returns
// the largest resting footprint seen.
func maxStepPages(t *testing.T, maker ProgramMaker, arg uint64) int {
	t.Helper()
	sess, err := repro.NewSession(testOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Bind(maker(arg)); err != nil {
		t.Fatal(err)
	}
	max := 0
	for {
		sr, err := sess.Step(1)
		if err != nil {
			t.Fatal(err)
		}
		if sr.Pages > max {
			max = sr.Pages
		}
		if sr.Done {
			return max
		}
	}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Store == nil {
		cfg.Store = repro.NewMemStore()
	}
	if cfg.SessionOpts == nil {
		cfg.SessionOpts = testOpts()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	return s
}

func TestConfigValidation(t *testing.T) {
	var ce *ConfigError
	if _, err := New(Config{}); !errors.As(err, &ce) || ce.Field != "Store" {
		t.Fatalf("New without store: %v", err)
	}
	if _, err := New(Config{Store: repro.NewMemStore(), Workers: -1}); !errors.As(err, &ce) || ce.Field != "Workers" {
		t.Fatalf("New with negative workers: %v", err)
	}
}

// TestRunQueueRoundRobin checks the dispatch order is FIFO per tenant
// and round-robin across sorted tenant names.
func TestRunQueueRoundRobin(t *testing.T) {
	q := newRunQueue()
	mk := func(tenant string, n int) *session {
		return &session{id: SessionID(fmt.Sprintf("%s/%d", tenant, n)), tenant: tenant}
	}
	for _, c := range []*session{mk("b", 0), mk("a", 0), mk("a", 1), mk("c", 0), mk("a", 2)} {
		q.push(c)
	}
	want := []SessionID{"a/0", "b/0", "c/0", "a/1", "a/2"}
	for i, w := range want {
		c := q.pop()
		if c == nil || c.id != w {
			t.Fatalf("pop %d = %v, want %s", i, c, w)
		}
	}
	if !q.empty() {
		t.Fatal("queue not drained")
	}
}

// TestServeMultiTenant is the core serving check: many sessions for
// several tenants, driven concurrently over a small worker pool, each
// producing exactly the result an uninterrupted private run produces.
func TestServeMultiTenant(t *testing.T) {
	maker := StripeProgram(3, 5, 256)
	s := newTestServer(t, Config{Workers: 3, Slice: 2})
	s.Register("stripe", maker)

	type req struct {
		tenant string
		id     SessionID
		arg    uint64
	}
	var reqs []req
	for ti := 0; ti < 3; ti++ {
		tenant := fmt.Sprintf("t%d", ti)
		for k := 0; k < 4; k++ {
			arg := uint64(100*ti + k)
			id, err := s.Open(tenant, "stripe", arg)
			if err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, req{tenant, id, arg})
		}
	}

	results := make([]repro.RunResult, len(reqs))
	var wg sync.WaitGroup
	for i, r := range reqs {
		wg.Add(1)
		go func(i int, r req) {
			defer wg.Done()
			res, err := s.Run(r.tenant, r.id)
			if err != nil {
				t.Errorf("run %s: %v", r.id, err)
				return
			}
			results[i] = res
		}(i, r)
	}
	wg.Wait()

	for i, r := range reqs {
		if want := directResult(t, maker, r.arg); results[i] != want {
			t.Errorf("session %s: served %+v, direct %+v", r.id, results[i], want)
		}
	}

	// Redelivery is idempotent: re-running a completed session returns
	// the same result without executing anything.
	before := s.Stats().Slices
	again, err := s.Run(reqs[0].tenant, reqs[0].id)
	if err != nil || again != results[0] {
		t.Fatalf("redelivery: %+v, %v", again, err)
	}
	st := s.Stats()
	if st.Slices != before {
		t.Fatalf("redelivery executed %d extra slices", st.Slices-before)
	}
	if st.Opened != 12 || st.Completed != 12 || st.BitEqFail != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestServeResidentCapBounded is the memory claim: open sessions vastly
// outnumber the resident cap, resident pages stay bounded by the cap
// (plus in-flight workers), and everything still completes bit-exact
// through evict/resume cycles. The same bound holds at both session
// counts: the peak does not grow with how many sessions are open.
func TestServeResidentCapBounded(t *testing.T) {
	const (
		workers     = 2
		residentCap = 3
	)
	maker := StripeProgram(2, 4, 128)
	bound := int64(residentCap+workers) * int64(maxStepPages(t, maker, 0))

	for _, sessions := range []int{16, 64} {
		sessions := sessions
		t.Run(fmt.Sprint(sessions), func(t *testing.T) {
			s := newTestServer(t, Config{Workers: workers, Resident: residentCap, Slice: 1})
			s.Register("stripe", maker)

			ids := make([]SessionID, sessions)
			for i := range ids {
				id, err := s.Open("acme", "stripe", uint64(i))
				if err != nil {
					t.Fatal(err)
				}
				ids[i] = id
			}
			results := make([]repro.RunResult, sessions)
			var wg sync.WaitGroup
			for i, id := range ids {
				wg.Add(1)
				go func(i int, id SessionID) {
					defer wg.Done()
					res, err := s.Run("acme", id)
					if err != nil {
						t.Errorf("run %s: %v", id, err)
						return
					}
					results[i] = res
				}(i, id)
			}
			wg.Wait()

			for i := range ids {
				if want := directResult(t, maker, uint64(i)); results[i] != want {
					t.Errorf("session %d: served %+v, direct %+v", i, results[i], want)
				}
			}
			st := s.Stats()
			if st.ResidentSessions > residentCap {
				t.Errorf("resident sessions %d > cap %d", st.ResidentSessions, residentCap)
			}
			if st.ResidentPeakPages > bound {
				t.Errorf("peak resident pages %d > bound %d (cap %d + %d workers)",
					st.ResidentPeakPages, bound, residentCap, workers)
			}
			if st.Evictions == 0 || st.Resumes == 0 {
				t.Errorf("cap never exercised: %d evictions, %d resumes", st.Evictions, st.Resumes)
			}
			if st.BitEqFail != 0 {
				t.Errorf("%d failover digest mismatches", st.BitEqFail)
			}
		})
	}
}

func TestServeTenantCaps(t *testing.T) {
	maker := StripeProgram(2, 3, 64)

	t.Run("open", func(t *testing.T) {
		s := newTestServer(t, Config{})
		s.Register("stripe", maker)
		s.SetCaps("acme", TenantCaps{MaxOpen: 2})
		if _, err := s.Open("acme", "stripe", 1); err != nil {
			t.Fatal(err)
		}
		id2, err := s.Open("acme", "stripe", 2)
		if err != nil {
			t.Fatal(err)
		}
		var ce *CapError
		if _, err := s.Open("acme", "stripe", 3); !errors.As(err, &ce) || ce.Cap != "open" {
			t.Fatalf("third open: %v", err)
		}
		// Caps are per tenant: another tenant is unaffected.
		if _, err := s.Open("rival", "stripe", 3); err != nil {
			t.Fatalf("other tenant: %v", err)
		}
		// Closing frees an admission slot.
		if err := s.CloseSession("acme", id2); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Open("acme", "stripe", 3); err != nil {
			t.Fatalf("open after close: %v", err)
		}
	})

	t.Run("vt", func(t *testing.T) {
		s := newTestServer(t, Config{})
		s.Register("stripe", maker)
		s.SetCaps("acme", TenantCaps{MaxVT: 1})
		id1, err := s.Open("acme", "stripe", 1)
		if err != nil {
			t.Fatal(err)
		}
		id2, err := s.Open("acme", "stripe", 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run("acme", id1); err != nil {
			t.Fatalf("first run within budget: %v", err)
		}
		var ce *CapError
		if _, err := s.Run("acme", id2); !errors.As(err, &ce) || ce.Cap != "vt" {
			t.Fatalf("run past vt budget: %v", err)
		}
		if _, err := s.Open("acme", "stripe", 3); !errors.As(err, &ce) || ce.Cap != "vt" {
			t.Fatalf("open past vt budget: %v", err)
		}
	})

	t.Run("pages", func(t *testing.T) {
		s := newTestServer(t, Config{})
		s.Register("stripe", maker)
		s.SetCaps("acme", TenantCaps{MaxPages: 1})
		id, err := s.Open("acme", "stripe", 1)
		if err != nil {
			t.Fatal(err)
		}
		var ce *CapError
		if _, err := s.Run("acme", id); !errors.As(err, &ce) || ce.Cap != "pages" {
			t.Fatalf("run past pages cap: %v", err)
		}
	})

	t.Run("wall", func(t *testing.T) {
		// A fake clock charging a fixed cost per reading; the budget
		// admits the first slice and refuses the next dispatch.
		var now int64
		var mu sync.Mutex
		clock := func() int64 {
			mu.Lock()
			defer mu.Unlock()
			now += 1000
			return now
		}
		s := newTestServer(t, Config{Slice: 1, Clock: clock})
		s.Register("stripe", maker)
		s.SetCaps("acme", TenantCaps{MaxWallNS: 1})
		id, err := s.Open("acme", "stripe", 1)
		if err != nil {
			t.Fatal(err)
		}
		var ce *CapError
		if _, err := s.Run("acme", id); !errors.As(err, &ce) || ce.Cap != "wall" {
			t.Fatalf("run past wall budget: %v", err)
		}
		if st := s.Stats(); st.WallNS == 0 {
			t.Error("clock configured but no wall time accounted")
		}
	})
}

func TestServeEvictCloseAndIsolation(t *testing.T) {
	maker := StripeProgram(2, 3, 64)
	s := newTestServer(t, Config{})
	s.Register("stripe", maker)
	id, err := s.Open("acme", "stripe", 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run("acme", id); err != nil {
		t.Fatal(err)
	}

	// Tenants cannot see (or evict, or close) each other's sessions,
	// and the error does not reveal whether the ID exists.
	wantMsg := fmt.Sprintf("serve: tenant rival has no session %s", id)
	if err := s.Evict("rival", id); err == nil || err.Error() != wantMsg {
		t.Fatalf("cross-tenant evict: %v", err)
	}
	if _, err := s.Run("rival", "rival/0"); err == nil {
		t.Fatal("unknown id ran")
	}

	// A completed session holds only its result — its machine halted
	// with the last slice — yet its final checkpoint can still be pushed
	// to the store: Evict re-derives it by deterministic re-execution.
	if st := s.Stats(); st.ResidentSessions != 0 || st.ResidentPeakPages == 0 {
		t.Fatalf("resident after run: %+v", st)
	}
	if err := s.Evict("acme", id); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.ResidentSessions != 0 || st.Evictions != 1 {
		t.Fatalf("resident after evict: %+v", st)
	}
	s.mu.Lock()
	head := s.sessions[id].sess.LastManifest()
	s.mu.Unlock()
	if head == nil {
		t.Fatal("evicting a completed session left no chain head")
	}
	if err := s.Evict("acme", id); err != nil {
		t.Fatalf("evicting a cold session: %v", err)
	}

	if err := s.CloseSession("acme", id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run("acme", id); err == nil {
		t.Fatal("closed session ran")
	}

	s.Shutdown()
	if _, err := s.Open("acme", "stripe", 8); !errors.Is(err, ErrClosed) {
		t.Fatalf("open after shutdown: %v", err)
	}
}

// TestServeGCKeepsLiveChains closes half the sessions, collects, and
// checks every surviving session's checkpoint chain is still fully
// loadable while the closed sessions' manifests are gone.
func TestServeGCKeepsLiveChains(t *testing.T) {
	maker := StripeProgram(2, 4, 128)
	store := repro.NewMemStore()
	s := newTestServer(t, Config{Store: store, Workers: 2, Resident: 1, Slice: 1})
	s.Register("stripe", maker)

	const n = 6
	ids := make([]SessionID, n)
	for i := range ids {
		id, err := s.Open("acme", "stripe", uint64(1000+i))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id SessionID) {
			defer wg.Done()
			if _, err := s.Run("acme", id); err != nil {
				t.Errorf("run %s: %v", id, err)
			}
		}(id)
	}
	wg.Wait()

	// Push every final image into the store so each session has a chain
	// head, then record which manifests must survive and which may go.
	for _, id := range ids {
		if err := s.Evict("acme", id); err != nil {
			t.Fatal(err)
		}
	}
	headOf := func(id SessionID) repro.ChunkKey {
		s.mu.Lock()
		defer s.mu.Unlock()
		m := s.sessions[id].sess.LastManifest()
		if m == nil {
			t.Fatalf("session %s has no chain head", id)
		}
		return m.Key()
	}
	var live, dead []repro.ChunkKey
	for i, id := range ids {
		key := headOf(id)
		if i%2 == 0 {
			live = append(live, key)
			continue
		}
		dead = append(dead, key)
		if err := s.CloseSession("acme", id); err != nil {
			t.Fatal(err)
		}
	}

	st, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if st.Removed == 0 {
		t.Error("closing half the sessions freed nothing")
	}
	for _, key := range live {
		m, err := repro.LoadManifest(store, key)
		if err != nil {
			t.Fatalf("live chain head %s lost: %v", key, err)
		}
		if _, err := repro.LoadImage(store, m); err != nil {
			t.Fatalf("live image %s lost: %v", key, err)
		}
	}
	for _, key := range dead {
		if _, err := repro.LoadManifest(store, key); err == nil {
			t.Errorf("closed session's manifest %s survived GC", key)
		}
	}
}

// TestServeGCKeepsSharedStore: a DirStore shared with a detshell-style
// checkpoint chain and a detmake build cache is collected by a server
// that knows of neither. What survives is a function of the store — its
// refs — plus the sessions the server holds: the chain's head still
// loads, the build is still warm, a session evicted mid-program resumes
// to the bits of an uninterrupted run, and what goes is what nothing
// references — a closed session's chain and a stray chunk. (Before the
// store kept its own refs, the server's roots were its sessions and
// nothing else: this collection removed every chunk of the chain and
// left MANIFEST naming a manifest the store no longer had.)
func TestServeGCKeepsSharedStore(t *testing.T) {
	maker := StripeProgram(2, 3, 64)
	store, err := repro.OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	// The chain: suspend after phase 1, resume, suspend after 2, head
	// recorded the way detshell ckpt records it.
	chain, err := repro.NewSession(testOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := chain.Bind(maker(5)); err != nil {
		t.Fatal(err)
	}
	suspendNext := func() *repro.Manifest {
		t.Helper()
		if _, err := chain.Step(1); err != nil {
			t.Fatal(err)
		}
		m, err := chain.Suspend(store)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1 := suspendNext()
	head := suspendNext()
	if parent, ok := head.Parent(); !ok || parent != m1.Key() {
		t.Fatal("the second save did not chain onto the first")
	}
	if err := store.SetRef("MANIFEST", head.Key()); err != nil {
		t.Fatal(err)
	}

	// The build, cold into the same store.
	graph, err := detmake.NewGraph([]*detmake.Task{
		{ID: "cat", Action: "concat", Outputs: []string{"ab"}, Inputs: []string{"a", "b"}},
		{ID: "up", Action: "upper", Outputs: []string{"AB"}, Inputs: []string{"ab"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	build := func() detmake.Result {
		t.Helper()
		res, err := detmake.Build(detmake.Config{Graph: graph, Store: store,
			Sources: map[string][]byte{"a": []byte("alpha\n"), "b": []byte("beta\n")}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := build()

	// The server: one session stranded by its wall budget after a slice
	// and evicted where it rests, one run to the end, evicted and closed.
	var now atomic.Int64
	s := newTestServer(t, Config{Store: store, Slice: 1, Clock: func() int64 { return now.Add(1000) }})
	s.Register("stripe", maker)
	s.SetCaps("acme", TenantCaps{MaxWallNS: 1})
	kept, err := s.Open("acme", "stripe", 7)
	if err != nil {
		t.Fatal(err)
	}
	var ce *CapError
	if _, err := s.Run("acme", kept); !errors.As(err, &ce) || ce.Cap != "wall" {
		t.Fatalf("run under a one-slice budget: %v", err)
	}
	if err := s.Evict("acme", kept); err != nil {
		t.Fatal(err)
	}
	closed, err := s.Open("rival", "stripe", 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run("rival", closed); err != nil {
		t.Fatal(err)
	}
	if err := s.Evict("rival", closed); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	closedHead := s.sessions[closed].sess.LastManifest().Key()
	s.mu.Unlock()
	if err := s.CloseSession("rival", closed); err != nil {
		t.Fatal(err)
	}
	stray := []byte("a chunk nothing references")
	if err := store.Put(castore.KeyOf(stray), stray); err != nil {
		t.Fatal(err)
	}

	st, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	// Roots: the head, two action entries, the evicted session.
	if st.Roots != 4 || st.Removed < 2 {
		t.Fatalf("GC: %+v, want 4 roots and the closed chain and the stray chunk removed", st)
	}
	if ok, _ := store.Has(castore.KeyOf(stray)); ok {
		t.Error("the stray chunk survived")
	}
	if _, err := repro.LoadManifest(store, closedHead); err == nil {
		t.Error("the closed session's manifest survived")
	}

	// The chain: still there from its ref, both links.
	key, ok, err := store.Ref("MANIFEST")
	if err != nil || !ok || key != head.Key() {
		t.Fatalf("MANIFEST after GC = %s, %v, %v", key, ok, err)
	}
	for _, k := range []repro.ChunkKey{head.Key(), m1.Key()} {
		m, err := repro.LoadManifest(store, k)
		if err != nil {
			t.Fatalf("chain manifest %s lost: %v", k, err)
		}
		if _, err := repro.LoadImage(store, m); err != nil {
			t.Fatalf("chain image %s lost: %v", k, err)
		}
	}
	// The build: still warm, same bits.
	if warm := build(); warm.Stats.CacheHits != 2 || warm.TreeDigest != cold.TreeDigest || warm.Checksum != cold.Checksum {
		t.Fatalf("build after GC: %+v, want 2 hits and the cold build's bits", warm.Stats)
	}
	// The evicted session: resumes from the store once its budget is
	// raised, bit-identical to a run that was never interrupted.
	s.SetCaps("acme", TenantCaps{})
	got, err := s.Run("acme", kept)
	if err != nil {
		t.Fatal(err)
	}
	if want := directResult(t, maker, 7); got != want {
		t.Fatalf("resumed after GC = %+v, want %+v", got, want)
	}
	if s.Stats().Resumes == 0 {
		t.Error("the evicted session finished without a resume")
	}
}

// TestRaisedBudgetFinishesSession: a slice refused by a cap fails the
// request that wanted it, not the session. The session stays open where
// it rests, and once the cap is raised the next Run queues it again and
// finishes it — with the result an uncapped run computes.
func TestRaisedBudgetFinishesSession(t *testing.T) {
	maker := StripeProgram(2, 3, 64)
	want := directResult(t, maker, 9)

	t.Run("wall", func(t *testing.T) {
		var now atomic.Int64
		s := newTestServer(t, Config{Slice: 1, Clock: func() int64 { return now.Add(1000) }})
		s.Register("stripe", maker)
		s.SetCaps("acme", TenantCaps{MaxWallNS: 1})
		id, err := s.Open("acme", "stripe", 9)
		if err != nil {
			t.Fatal(err)
		}
		var ce *CapError
		for i := 0; i < 2; i++ { // refused again while the cap stands
			if _, err := s.Run("acme", id); !errors.As(err, &ce) || ce.Cap != "wall" {
				t.Fatalf("run %d under the cap: %v", i, err)
			}
		}
		if st := s.Stats(); st.Slices != 1 || st.CapRejections != 2 || st.ResidentSessions != 1 {
			t.Fatalf("after two refusals: %+v; want one slice run, two rejections, the machine parked", st)
		}
		s.SetCaps("acme", TenantCaps{})
		got, err := s.Run("acme", id)
		if err != nil {
			t.Fatalf("run after the cap was raised: %v", err)
		}
		if got != want {
			t.Fatalf("result after a refusal = %+v, want %+v", got, want)
		}
	})

	t.Run("pages", func(t *testing.T) {
		s := newTestServer(t, Config{Slice: 1})
		s.Register("stripe", maker)
		s.SetCaps("acme", TenantCaps{MaxPages: 1})
		id, err := s.Open("acme", "stripe", 9)
		if err != nil {
			t.Fatal(err)
		}
		var ce *CapError
		for i := 0; i < 2; i++ { // a machine resting over the cap is not dispatched again
			if _, err := s.Run("acme", id); !errors.As(err, &ce) || ce.Cap != "pages" {
				t.Fatalf("run %d under the cap: %v", i, err)
			}
		}
		if st := s.Stats(); st.Slices != 1 || st.CapRejections != 2 {
			t.Fatalf("after two refusals: %+v; want one slice run, two rejections", st)
		}
		s.SetCaps("acme", TenantCaps{MaxPages: maxStepPages(t, maker, 9)})
		got, err := s.Run("acme", id)
		if err != nil {
			t.Fatalf("run after the cap was raised: %v", err)
		}
		if got != want {
			t.Fatalf("result after a refusal = %+v, want %+v", got, want)
		}
	})
}

// TestServeShutdownLeavesNoGoroutines: resident sessions are parked
// machines, so Shutdown (and CloseSession) must take them down with the
// worker pool — no goroutine of the server or of any session's machine
// outlives it, even with sessions still open and mid-program.
func TestServeShutdownLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()

	// A wall budget of one slice strands every session after its first
	// slice: request refused, session open, machine parked at barrier 1.
	var now atomic.Int64
	s, err := New(Config{
		Store: repro.NewMemStore(), SessionOpts: testOpts(), Workers: 2, Slice: 1,
		Clock: func() int64 { return now.Add(1000) },
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Register("stripe", StripeProgram(3, 4, 128))
	const n = 4
	ids := make([]SessionID, n)
	for i := range ids {
		tenant := fmt.Sprintf("t%d", i)
		s.SetCaps(tenant, TenantCaps{MaxWallNS: 1})
		if ids[i], err = s.Open(tenant, "stripe", uint64(i)); err != nil {
			t.Fatal(err)
		}
		var ce *CapError
		if _, err := s.Run(tenant, ids[i]); !errors.As(err, &ce) || ce.Cap != "wall" {
			t.Fatalf("run %d: %v, want the wall cap", i, err)
		}
	}
	if st := s.Stats(); st.ResidentSessions != n {
		t.Fatalf("resident sessions %d, want %d parked machines", st.ResidentSessions, n)
	}
	parked := runtime.NumGoroutine()
	if parked <= base {
		t.Fatalf("%d goroutines with %d resident sessions, baseline %d", parked, n, base)
	}

	if err := s.CloseSession("t0", ids[0]); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.ResidentSessions != n-1 {
		t.Fatalf("resident sessions after CloseSession: %d", st.ResidentSessions)
	}
	s.Shutdown()
	if st := s.Stats(); st.ResidentSessions != 0 || st.ResidentPages != 0 {
		t.Fatalf("resident after Shutdown: %+v", st)
	}

	waitGoroutines(t, base, "after Shutdown")
}

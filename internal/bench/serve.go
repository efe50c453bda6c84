package bench

import (
	"fmt"
	"sync"
	"time"

	"repro"
	"repro/internal/castore"
	"repro/internal/serve"
)

// Serve measures the session-serving fabric: open-session count swept
// far past the resident cap, for one tenant and for eight, reporting
// how much the cap actually pins (peak footprint of the live machines,
// not a per-session sum), how often sessions cycled through the shared
// store, what a resumed slice costs, and how many store bytes each open
// session amortizes to.
// Every row asserts the memory claim — peak resident pages are bounded
// by the cap plus in-flight workers, never by the session count — and
// spot-checks served results bit-identical against uninterrupted
// private runs. The final row re-runs the small configuration with a
// fault hook killing a worker after every fifth slice: each death fails
// over to a fresh session re-admitted from the pre-slice manifest, and
// the bit-eq column reports the digest comparison the server performs
// on every failover.
func Serve(o Options) Table {
	type shape struct {
		sessions int
		resident int
		tenants  int
	}
	var shapes []shape
	if o.Quick {
		shapes = []shape{{64, 8, 1}, {256, 32, 8}, {1024, 8, 8}}
	} else {
		for _, sessions := range []int{64, 256, 1024} {
			for _, resident := range []int{8, 32} {
				for _, tenants := range []int{1, 8} {
					shapes = append(shapes, shape{sessions, resident, tenants})
				}
			}
		}
	}

	t := Table{
		ID:    "serve",
		Title: "session-serving fabric: resident footprint vs open sessions (peak pages bounded by cap)",
		Header: []string{"sessions", "resident", "tenants", "res-pages", "evictions",
			"resumes", "resume-ms", "store-kb/sess", "bit-eq"},
	}
	for _, sh := range shapes {
		t.AddRow(serveRow(sh.sessions, sh.resident, sh.tenants, nil)...)
	}

	// Killed-worker row: a post-slice death every fifth slice.
	faulty := func(ev serve.FaultEvent) serve.FaultAction {
		if ev.Slice%5 == 4 {
			return serve.FaultCrashAfter
		}
		return serve.FaultNone
	}
	row := serveRow(64, 8, 1, faulty)
	row[0] = "64+kill"
	t.AddRow(row...)

	t.Note("res-pages is the peak footprint (page tables + pages) of the parked live machines, asserted <=")
	t.Note("(resident-cap + workers) x pages/session however many sessions are open. resume-ms is")
	t.Note("the mean wall time of a slice that begins by rebuilding its session from the store;")
	t.Note("store-kb/sess the stored (deduped, compressed) bytes per open session after the run.")
	t.Note("bit-eq: sampled sessions equal uninterrupted private runs; the 64+kill row additionally")
	t.Note("fails over after every fifth slice and asserts each re-run's checkpoint digest equals")
	t.Note("the dead worker's attempt (server-side check, failures counted in BitEqFail).")
	return t
}

// serveRow opens `sessions` stripe sessions spread over `tenants`
// tenants against a `resident`-capped server, drives them all to
// completion concurrently, and returns the table row.
func serveRow(sessions, resident, tenants int, fault serve.FaultHook) []string {
	const workers = 4
	maker := serve.StripeProgram(2, 2, 16) // tiny on purpose: the fabric is under test, not the workload

	opts := []repro.SessionOption{repro.WithMachine(repro.MachineConfig{CPUsPerNode: 2, MergeWorkers: 1})}
	perPages := serveSessionPages(maker, opts)

	store := castore.NewMemStore()
	s, err := serve.New(serve.Config{
		Store:       store,
		SessionOpts: opts,
		Workers:     workers,
		Resident:    resident,
		Slice:       1,
		Clock:       func() int64 { return time.Now().UnixNano() },
		Fault:       fault,
	})
	if err != nil {
		panic(fmt.Sprintf("bench: serve: %v", err))
	}
	defer s.Shutdown()
	s.Register("stripe", maker)

	type req struct {
		tenant string
		id     serve.SessionID
		arg    uint64
	}
	reqs := make([]req, sessions)
	for i := range reqs {
		tenant := fmt.Sprintf("t%d", i%tenants)
		arg := uint64(i)
		id, err := s.Open(tenant, "stripe", arg)
		if err != nil {
			panic(fmt.Sprintf("bench: serve open: %v", err))
		}
		reqs[i] = req{tenant, id, arg}
	}

	results := make([]repro.RunResult, sessions)
	var wg sync.WaitGroup
	for i, r := range reqs {
		wg.Add(1)
		go func(i int, r req) {
			defer wg.Done()
			res, err := s.Run(r.tenant, r.id)
			if err != nil {
				panic(fmt.Sprintf("bench: serve run %s: %v", r.id, err))
			}
			results[i] = res
		}(i, r)
	}
	wg.Wait()

	// The memory claim, asserted: however many sessions are open, peak
	// resident pages are bounded by the cap plus the slices in flight.
	m := s.Stats()
	if bound := int64(resident+workers) * int64(perPages); m.ResidentPeakPages > bound {
		panic(fmt.Sprintf("bench: serve: peak resident pages %d > bound %d (cap %d, %d sessions)",
			m.ResidentPeakPages, bound, resident, sessions))
	}
	if m.Completed != int64(sessions) {
		panic(fmt.Sprintf("bench: serve: completed %d of %d", m.Completed, sessions))
	}
	if m.BitEqFail != 0 {
		panic(fmt.Sprintf("bench: serve: %d failover digest mismatches", m.BitEqFail))
	}
	if fault != nil && m.BitEqOK == 0 {
		panic("bench: serve: fault row injected no digest-checked failovers")
	}

	// Spot-check served results against uninterrupted private runs.
	step := sessions / 16
	if step == 0 {
		step = 1
	}
	for i := 0; i < sessions; i += step {
		sess, err := repro.NewSession(opts...)
		if err != nil {
			panic(fmt.Sprintf("bench: serve: %v", err))
		}
		want, err := sess.RunProgram(serve.StripeProgram(2, 2, 16)(reqs[i].arg))
		if err != nil {
			panic(fmt.Sprintf("bench: serve direct run: %v", err))
		}
		if results[i] != want {
			panic(fmt.Sprintf("bench: serve: session %s diverged from direct run", reqs[i].id))
		}
	}

	st, err := store.Stats()
	if err != nil {
		panic(fmt.Sprintf("bench: serve store stats: %v", err))
	}
	resumeMS := 0.0
	if m.Resumes > 0 {
		resumeMS = float64(m.ResumeNS) / float64(m.Resumes) / 1e6
	}
	bitEq := "bit-eq"
	if fault != nil {
		bitEq = fmt.Sprintf("bit-eq(%d)", m.BitEqOK)
	}
	return []string{iv(int64(sessions)), iv(int64(resident)), iv(int64(tenants)),
		iv(m.ResidentPeakPages), iv(m.Evictions), iv(m.Resumes), ms(resumeMS),
		f2(float64(st.StoredSize) / 1024 / float64(sessions)), bitEq}
}

// serveSessionPages is the largest resting footprint of one stripe
// session — the unit the resident-pages bound is stated in.
func serveSessionPages(maker serve.ProgramMaker, opts []repro.SessionOption) int {
	sess, err := repro.NewSession(opts...)
	if err != nil {
		panic(fmt.Sprintf("bench: serve: %v", err))
	}
	if err := sess.Bind(maker(0)); err != nil {
		panic(fmt.Sprintf("bench: serve: %v", err))
	}
	max := 0
	for {
		sr, err := sess.Step(1)
		if err != nil {
			panic(fmt.Sprintf("bench: serve: %v", err))
		}
		if sr.Pages > max {
			max = sr.Pages
		}
		if sr.Done {
			return max
		}
	}
}

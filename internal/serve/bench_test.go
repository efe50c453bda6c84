package serve

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro"
)

// BenchmarkServe is the serving path's tier-1 ruler, in the shape of the
// end-to-end serve_hot and serve_evict workloads minus the HTTP: an
// in-process Server over a DirStore, two closed-loop clients of two
// tenants, each op an open, a run to completion (eight one-phase slices
// of detserved's stripe program) and a close, every result checked
// against an uninterrupted private run. hot keeps every session
// resident; evict allows one machine for two clients, so resting
// sessions leave through the store and come back. It reports
// evictions/op and the collector's gc-cycles/op. Time a change to
// internal/serve with this first; claim it with `go run ./benchmark`.
func BenchmarkServe(b *testing.B) {
	const (
		clients = 2
		args    = 16
	)
	maker := StripeProgram(4, 8, 1024)
	var want [args]repro.RunResult
	for i := range want {
		want[i] = directResult(b, maker, uint64(i))
	}
	for _, bc := range []struct {
		name     string
		resident int
	}{{"hot", 64}, {"evict", 1}} {
		b.Run(bc.name, func(b *testing.B) {
			store, err := repro.OpenDirStore(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			s, err := New(Config{Store: store, SessionOpts: testOpts(), Workers: clients, Resident: bc.resident, Slice: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Shutdown()
			s.Register("stripe", maker)

			var next atomic.Int64
			op := func(tenant string, arg uint64) error {
				id, err := s.Open(tenant, "stripe", arg)
				if err != nil {
					return err
				}
				res, err := s.Run(tenant, id)
				if err != nil {
					return err
				}
				if res != want[arg] {
					return fmt.Errorf("session %s: served %+v, direct %+v", id, res, want[arg])
				}
				return s.CloseSession(tenant, id)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			var wg sync.WaitGroup
			for cl := 0; cl < clients; cl++ {
				wg.Add(1)
				go func(tenant string) {
					defer wg.Done()
					for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
						if err := op(tenant, uint64(i%args)); err != nil {
							b.Error(err)
							return
						}
					}
				}(fmt.Sprintf("client%d", cl))
			}
			wg.Wait()
			b.StopTimer()
			runtime.ReadMemStats(&after)

			st := s.Stats()
			b.ReportMetric(float64(st.Evictions)/float64(b.N), "evictions/op")
			// An op leaves ≈ 0.65 MB of dead objects behind hot, ≈ 1.3 MB
			// evicting (B/op with -benchmem; each machine recycles the
			// frames its spaces free): at the test binary's GOGC=100 that
			// is ≈ 0.3 and ≈ 0.5 cycles per op, which is what detserved's
			// GC target exists to cut (cmd/detserved, paceGC). Run with
			// GOGC=400 to see the daemon's figure, ≈ 0.045 and ≈ 0.09.
			b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "gc-cycles/op")
			if st.BitEqFail != 0 || st.Completed != int64(b.N) {
				b.Errorf("%d ops: %+v", b.N, st)
			}
			// With every session resident nothing may leave; with one
			// machine for two clients a long enough run has to evict.
			if (bc.resident == 1 && b.N >= 64 && st.Evictions == 0) || (bc.resident > clients && st.Evictions != 0) {
				b.Errorf("%d ops at resident cap %d: %d evictions", b.N, bc.resident, st.Evictions)
			}
		})
	}
}

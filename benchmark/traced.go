package main

import (
	"runtime"
	"strings"
	"time"
)

// storeCounter is implemented by the workloads whose traced replay
// hands the program a decorated store.
type storeCounter interface {
	storeCounts() *storeCounts
}

func (m *makeWorkload) storeCounts() *storeCounts { return &m.counts }

func (s *serveWorkload) storeCounts() *storeCounts {
	if s.inproc[1] == nil {
		return nil
	}
	return &s.inproc[1].trace.counts
}

// runTraced is the traced run of one workload, already set up and warm:
// windows of the end-to-end op (for the numbers only an outside view
// gives: the daemon's counters, its RSS), of the plain in-process
// replay, and of the replay with the span decorators in place, taken
// round-robin. It returns every window it ran and the workload's
// per-layer metrics. End-to-end metrics never come from here.
func runTraced(c *runConfig, h *host, m *measured, tr *tracer) ([]*window, map[string]float64) {
	// plain is the untraced in-process form of the op: the traced
	// windows' like-for-like partner.
	modes, plain := []mode{modeOutside, modeTraced}, modeOutside
	_, isServe := m.w.(*serveWorkload)
	if isServe {
		modes, plain = []mode{modeOutside, modeInproc, modeTraced}, modeInproc
	}
	d := time.Duration(c.seconds / float64(c.windows()*len(modes)) * float64(time.Second))
	byMode := make(map[mode][]*window)
	var all []*window
	var mallocs uint64
	for round := 0; round < c.windows(); round++ {
		for _, md := range modes {
			var before, after runtime.MemStats
			if md == plain {
				runtime.ReadMemStats(&before)
			}
			wtr := tr
			if md != modeTraced {
				wtr = nil
			}
			w := timedWindow(h, m, md, d, wtr)
			if md == plain {
				runtime.ReadMemStats(&after)
				mallocs += after.Mallocs - before.Mallocs
			}
			byMode[md] = append(byMode[md], w)
			all = append(all, w)
		}
	}

	out := make(map[string]float64)
	m.w.layer(out)
	lat := func(ws []*window) (v []float64) {
		for _, w := range ws {
			v = append(v, w.Lat...)
		}
		return v
	}
	okOps := func(ws []*window) (n int) {
		for _, w := range ws {
			n += w.ok()
		}
		return n
	}
	outside := endToEnd(byMode[modeOutside])
	for _, d := range absoluteDefs {
		out["e2e."+d.Name] = outside[d.Name]
	}
	if isServe {
		var run []float64
		for _, w := range byMode[modeOutside] {
			run = append(run, w.Samples["run"]...)
		}
		out["serve.run_p99_ms"] = percentile(run, 99)
		out["serve.inproc_run_ms"] = median(lat(byMode[plain]))
		if !c.smoke {
			out["detserved.http_overhead_ms"] = median(lat(byMode[modeOutside])) - out["serve.inproc_run_ms"]
		}
	}
	if traced := endToEnd(byMode[modeTraced])["ops_per_s"]; traced > 0 {
		out["trace.overhead_ratio"] = endToEnd(byMode[plain])["ops_per_s"] / traced
	}

	// Shares of the traced ops' wall, from the span trees.
	self, total := selfTimes(tr.closed())
	share := func(groups ...string) float64 {
		if total == 0 {
			return 0
		}
		var s float64
		for _, name := range sortedKeys(self) {
			for _, g := range groups {
				if name == g || strings.HasPrefix(name, g+".") {
					s += self[name]
					break
				}
			}
		}
		return s / total
	}
	out["castore.time_share"] = share("castore")
	switch m.w.(type) {
	case *serveWorkload:
		out["serve.program_share"] = share("program")
		out["serve.step_share"] = share("session")
		out["serve.unattributed_share"] = share("op", "serve")
	case *makeWorkload:
		out["detmake.share.store_put"] = share("castore.put", "castore.has")
		out["detmake.share.store_get"] = share("castore.get")
		out["detmake.share.index"] = share("index")
		out["detmake.share.actions"] = share("action")
		out["detmake.share.self"] = share("op", "detmake")
	}
	if sc, ok := m.w.(storeCounter); ok {
		if cnt, n := sc.storeCounts(), okOps(byMode[modeTraced]); cnt != nil && n > 0 {
			cnt.mu.Lock()
			out["castore.put_calls_per_op"] = float64(cnt.Puts) / float64(n)
			out["castore.get_calls_per_op"] = float64(cnt.Gets) / float64(n)
			out["castore.stored_bytes_per_op"] = float64(cnt.StoredBytes) / float64(n)
			if cnt.Puts > 0 {
				out["castore.put_dup_ratio"] = float64(cnt.DupPuts) / float64(cnt.Puts)
			}
			cnt.mu.Unlock()
		}
	}

	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	out["proc.peak_rss_mb"] = procPeakRSS(0)
	out["proc.gc_cpu_share"] = mem.GCCPUFraction
	if n := okOps(byMode[plain]); n > 0 {
		out["proc.mallocs_per_op"] = float64(mallocs) / float64(n)
	}
	return all, out
}

package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// runConfig is what every workload is set up from.
type runConfig struct {
	seed    uint64
	seconds float64 // timed seconds per workload
	threads int     // parallel programs' thread count: GOMAXPROCS
	root    string  // module root: where cmd/detserved is built from
	work    string  // scratch directory, removed on exit
	// smoke shrinks the run for the test suite: one set-up, no warm-up,
	// one window, and the session server in-process instead of a spawned
	// daemon.
	smoke bool
}

// mode selects which form of a workload's op a window runs.
type mode int

const (
	// modeOutside is the end-to-end op, measured from outside the
	// program: over loopback HTTP for serve_*, a plain call otherwise.
	modeOutside mode = iota
	// modeInproc replays serve_* against an in-process serve.Server with
	// the daemon's configuration; other workloads run as modeOutside.
	modeInproc
	// modeTraced is modeInproc with the span decorators in place.
	modeTraced
)

// window is one timed closed-loop span of one workload.
type window struct {
	Wall      float64 `json:"wall_s"`
	CPU       float64 `json:"cpu_s"` // CPU of the program under test
	Attempted int     `json:"ops_attempted"`
	Failed    int     `json:"ops_failed"`
	CalibMS   float64 `json:"calib_ms"`
	Perturbed bool    `json:"perturbed,omitempty"`
	// Lat holds the latency in ms of every op that passed verification.
	Lat []float64 `json:"-"`
	// Samples holds further timings in ms by key. "den:<k>" are runs of
	// the workload's reference and "num:<k>" the matching parts of the
	// op (without "num:" keys, Lat is the numerator); other keys are
	// per-layer material.
	Samples map[string][]float64 `json:"-"`
	// Value is the window's own value of each end-to-end metric: the
	// spread behind the pooled number.
	Value map[string]float64 `json:"value,omitempty"`
	// Errs keeps the first few failures' messages for the report.
	Errs []string `json:"errors,omitempty"`
}

func (w *window) ok() int { return w.Attempted - w.Failed }

func (w *window) sample(key string, v float64) {
	if w.Samples == nil {
		w.Samples = make(map[string][]float64)
	}
	w.Samples[key] = append(w.Samples[key], v)
}

// fail counts one failed op.
func (w *window) fail(err error) {
	w.Failed++
	if len(w.Errs) < 4 {
		w.Errs = append(w.Errs, err.Error())
	}
}

// workload is one of the six named workloads.
type workload interface {
	// setup does everything that precedes the first warm-up op; its wall
	// time is setup_s. teardown undoes it, so set-up can be repeated.
	setup(c *runConfig) error
	teardown()
	// run drives the closed loop for d and returns what it saw: the ops,
	// and interleaved with them the runs of the workload's reference —
	// the same results computed the plain way, which is both the oracle
	// the ops are verified against and the unit of the gated metrics.
	run(m mode, d time.Duration, tr *tracer) *window
	// finish makes the end-of-run checks and returns how many results
	// were verified in all; zero means the verification never fired.
	finish() (verified int, err error)
	// layer adds the per-layer numbers the workload can read from
	// outside the program (the daemon's counters, its RSS, its store).
	layer(out map[string]float64)
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "par_coarse", "par_fine":
		return &parWorkload{grain: strings.TrimPrefix(name, "par_")}, nil
	case "serve_hot":
		return &serveWorkload{name: name, resident: 64}, nil
	case "serve_evict":
		return &serveWorkload{name: name, resident: 1}, nil
	case "make_cold", "make_warm":
		return &makeWorkload{warm: name == "make_warm"}, nil
	}
	return nil, fmt.Errorf("benchmark: unknown workload %q", name)
}

// windows is how many windows a workload's timed seconds are split
// into; with several workloads the windows interleave round-robin so
// that a host disturbance lands on all of them.
func (c *runConfig) windows() int {
	if c.smoke {
		return 1
	}
	return 4
}

// perturbedOff is how far a window's calibration may sit from the run's
// median before the window counts as perturbed and is run again.
const perturbedOff = 0.15

// measured is everything one run learnt about one workload.
type measured struct {
	name    string
	w       workload
	setups  []float64 // seconds, one per set-up repetition
	windows []*window // the end-to-end windows that count
	dropped []*window // perturbed windows that were re-run: kept, never pooled
}

// host tracks the calibration spin over a run.
type host struct {
	calib     []float64
	perturbed int
}

// perturbedNow reports whether c is off the median of the calibrations
// so far, and records c.
func (h *host) perturbedNow(c float64) bool {
	off := false
	if len(h.calib) >= 3 {
		m := median(h.calib)
		off = c > m*(1+perturbedOff) || c < m*(1-perturbedOff)
	}
	h.calib = append(h.calib, c)
	return off
}

// timedWindow runs one window of workload m in mode md, preceded by the
// calibration spin. A perturbed window is kept in m.dropped, counted,
// and run again once.
func timedWindow(h *host, m *measured, md mode, d time.Duration, tr *tracer) *window {
	for attempt := 0; ; attempt++ {
		c := calibrate()
		off := h.perturbedNow(c)
		w := m.w.run(md, d, tr)
		w.CalibMS = c
		if off && attempt == 0 {
			w.Perturbed = true
			h.perturbed++
			m.dropped = append(m.dropped, w)
			fmt.Fprintf(os.Stderr, "benchmark: %s: window perturbed (calib %.2f ms, median %.2f ms), running it again\n",
				m.name, c, median(h.calib))
			continue
		}
		w.Perturbed = off
		return w
	}
}

// setupReps is how often set-up is repeated so that setup_s is a median.
const setupReps = 3

// prime takes the calibration spins the noise guard needs before it can
// judge a window.
func (h *host) prime() {
	for i := 0; i < 3; i++ {
		h.calib = append(h.calib, calibrate())
	}
}

// prepare sets a workload up (repeatedly, keeping the last), then warms
// it up untimed. Priming the noise guard is part of set-up: it, too,
// comes before the first warm-up op.
func prepare(c *runConfig, h *host, m *measured, reps int, warm time.Duration) error {
	for i := 0; i < reps; i++ {
		if i > 0 {
			m.w.teardown()
		}
		start := time.Now()
		h.prime()
		if err := m.w.setup(c); err != nil {
			return fmt.Errorf("%s: set-up: %w", m.name, err)
		}
		m.setups = append(m.setups, time.Since(start).Seconds())
	}
	if warm > 0 {
		if w := m.w.run(modeOutside, warm, nil); w.ok() == 0 {
			return fmt.Errorf("%s: warm-up completed no op: %s", m.name, strings.Join(w.Errs, "; "))
		}
	}
	return nil
}

// warmup is the untimed lead-in before the first window: 3 s of a 20 s
// run, in proportion for shorter ones.
func (c *runConfig) warmup() time.Duration {
	if c.smoke {
		return 0
	}
	return time.Duration(min(3, 0.15*c.seconds) * float64(time.Second))
}

func (c *runConfig) windowLen() time.Duration {
	return time.Duration(c.seconds / float64(c.windows()) * float64(time.Second))
}

// runUntraced is the end-to-end measurement: set every workload up,
// warm it up, then take the windows round-robin.
func runUntraced(c *runConfig, h *host, ms []*measured) error {
	reps := setupReps
	if c.smoke {
		reps = 1
	}
	for _, m := range ms {
		if err := prepare(c, h, m, reps, c.warmup()); err != nil {
			return err
		}
	}
	for round := 0; round < c.windows(); round++ {
		for _, m := range ms {
			m.windows = append(m.windows, timedWindow(h, m, modeOutside, c.windowLen(), nil))
		}
	}
	return nil
}

// split pools the windows' reference samples: per key, the numerator
// samples ("num:<k>", or the op latencies when a workload has one
// reference for the whole op) and the denominator samples ("den:<k>").
func split(ws []*window) (num, den map[string][]float64) {
	num, den = make(map[string][]float64), make(map[string][]float64)
	for _, w := range ws {
		for k, v := range w.Samples {
			if key, ok := strings.CutPrefix(k, "num:"); ok {
				num[key] = append(num[key], v...)
			} else if key, ok := strings.CutPrefix(k, "den:"); ok {
				den[key] = append(den[key], v...)
			}
		}
	}
	if len(num) == 0 {
		for _, w := range ws {
			num["op"] = append(num["op"], w.Lat...)
		}
	}
	return num, den
}

// sumMedians is Σ over keys of the median sample.
func sumMedians(m map[string][]float64) float64 {
	var s float64
	for _, k := range sortedKeys(m) {
		s += median(m[k])
	}
	return s
}

// endToEnd computes the end-to-end metrics over the given windows (all
// of a run's, or one alone for the spread). ref, the reference op's wall
// in ms, is Σ over keys of the median reference sample; the two ratios
// are the latency and the CPU cost in units of it. Set-up is not a
// window's business; the caller adds setup_s.
func endToEnd(ws []*window) map[string]float64 {
	var wall, cpu float64
	var ok int
	var lat []float64
	for _, w := range ws {
		wall += w.Wall
		cpu += w.CPU
		ok += w.ok()
		lat = append(lat, w.Lat...)
	}
	num, den := split(ws)
	ref := sumMedians(den)
	out := map[string]float64{"op_p50_ms": median(lat)}
	if wall > 0 {
		out["ops_per_s"] = float64(ok) / wall
	}
	if ok > 0 {
		out["cpu_ms_per_op"] = cpu * 1000 / float64(ok)
	}
	if ref > 0 {
		out["wall_ratio"] = sumMedians(num) / ref
		out["cpu_per_ref"] = out["cpu_ms_per_op"] / ref
	}
	return out
}

// pooled returns a workload's end-to-end metrics over all its windows,
// and stores each window's own values beside it.
func (m *measured) pooled() map[string]float64 {
	for _, w := range m.windows {
		w.Value = endToEnd([]*window{w})
	}
	out := endToEnd(m.windows)
	out["setup_s"] = median(m.setups)
	return out
}

func (m *measured) latencies() []float64 {
	var lat []float64
	for _, w := range m.windows {
		lat = append(lat, w.Lat...)
	}
	return lat
}

// sortedKeys returns a map's keys in order: every report iterates maps
// through it, so output order never depends on map iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// loop runs op until d has passed (at least once), recording each op in
// w; op returns the op's latency in ms.
func loop(w *window, d time.Duration, op func() (float64, error)) {
	deadline := time.Now().Add(d)
	for {
		w.Attempted++
		if l, err := op(); err != nil {
			w.fail(err)
		} else {
			w.Lat = append(w.Lat, l)
		}
		if !time.Now().Before(deadline) {
			return
		}
	}
}

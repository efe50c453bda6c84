// Benchmark measures, from outside the product code, the three things a
// user of this repository does — run a parallel program (repro.Run),
// serve sessions (a spawned cmd/detserved over loopback HTTP) and run a
// build (detmake.Build on a DirStore) — as six named workloads, and
// then, in a separate traced run, what each layer under them costs.
// README.md beside this file defines every workload and metric.
//
//	go run ./benchmark -seed 1 -out result.json      all six workloads, then the traced run
//	go run ./benchmark -compare a.json b.json        gate b against a
//	go run ./benchmark -smoke                        a one-second pass over everything
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1
//
// The last form is the driver's: one workload per process, one JSON
// object as the last line of standard output.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print one JSON line (the driver's form)")
		seed         = flag.Uint64("seed", 1, "seed of the generated inputs: session args and build sources")
		seconds      = flag.Float64("seconds", 0, "timed seconds per workload (default 20; 1 with -smoke)")
		trace        = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		out          = flag.String("out", "", "write the result here, and trace.json beside it")
		compare      = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
		smoke        = flag.Bool("smoke", false, "short run with the session server in-process; checks every verification fires")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if *seconds == 0 {
		*seconds = 20
		if *smoke {
			*seconds = 1
		}
	}
	if *seconds < 0 || *trace < 0 || *trace > 1 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments; see -h")
		return 2
	}

	c := &runConfig{seed: *seed, seconds: *seconds, threads: runtime.GOMAXPROCS(0), smoke: *smoke}
	var err error
	if c.root, err = moduleRoot(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// Everything the run writes, apart from -out, goes under one scratch
	// directory inside the checkout, removed on every way out.
	scratch := filepath.Join(c.root, ".bench_build")
	if err = os.MkdirAll(scratch, 0o755); err == nil {
		c.work, err = os.MkdirTemp(scratch, "run-*")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	cleanup := func() {
		killDaemons()
		os.RemoveAll(c.work)
	}
	defer cleanup() // also runs when main panics
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()

	if *workloadName != "" {
		return driverRun(c, *workloadName, *trace == 1)
	}
	return fullRun(c, *out)
}

// moduleRoot finds the checkout: the nearest directory at or above the
// working directory whose go.mod declares module repro.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the repro module: no go.mod declaring it at or above the working directory")
		}
		dir = parent
	}
}

// metricValue is one reported number with what -compare needs to judge it.
type metricValue struct {
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	Better   string  `json:"better,omitempty"`
	Bound    float64 `json:"bound,omitempty"`
	AbsSlack float64 `json:"abs_slack,omitempty"`
	Exact    bool    `json:"exact,omitempty"`
}

func valuesOf(defs []metricDef, v map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(v))
	for _, d := range defs {
		if x, ok := v[d.Name]; ok {
			out[d.Name] = metricValue{Value: x, Unit: d.Unit, Better: d.Better, Bound: d.Bound, AbsSlack: d.AbsSlack, Exact: d.Exact}
		}
	}
	return out
}

// hostInfo is the host block of a result file.
type hostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	CalibMS    float64 `json:"calib_ms"`
	Perturbed  int     `json:"perturbed_windows"`
}

// workloadResult is one workload's part of a result file.
type workloadResult struct {
	Attempted int    `json:"ops_attempted"`
	Failed    int    `json:"ops_failed"`
	Verified  int    `json:"results_verified"`
	Samples   int    `json:"samples"`
	Correct   bool   `json:"correct"`
	Error     string `json:"error,omitempty"`
	// TailPercentile is the highest percentile with at least ten samples
	// beyond it; TailMS is the op latency there.
	TailPercentile float64                `json:"op_tail_percentile,omitempty"`
	TailMS         float64                `json:"op_tail_ms,omitempty"`
	Metrics        map[string]metricValue `json:"metrics"`
	Windows        []*window              `json:"windows"`
	Rerun          []*window              `json:"perturbed_windows,omitempty"`
	// Layers are the per-layer metrics of this workload's traced run.
	Layers map[string]metricValue `json:"per_layer,omitempty"`
}

// result is a whole result file.
type result struct {
	Host      hostInfo                   `json:"host"`
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*workloadResult `json:"workloads"`
	// Layers are the unit drives' metrics: one set per run, whatever the
	// workload.
	Layers map[string]metricValue `json:"per_layer,omitempty"`
}

func (h *host) info(root string) hostInfo {
	commit := "unknown"
	git := exec.Command("git", "rev-parse", "--short", "HEAD")
	git.Dir = root
	if b, err := git.Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	return hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: commit, CalibMS: median(h.calib), Perturbed: h.perturbed}
}

func (h *host) layers() map[string]float64 {
	return map[string]float64{
		"host.nproc":             float64(runtime.NumCPU()),
		"host.gomaxprocs":        float64(runtime.GOMAXPROCS(0)),
		"host.calib_ms":          median(h.calib),
		"host.perturbed_windows": float64(h.perturbed),
	}
}

func newMeasured(name string) (*measured, error) {
	w, err := newWorkload(name)
	if err != nil {
		return nil, err
	}
	return &measured{name: name, w: w}, nil
}

// conclude makes a workload's end-of-run checks and folds them, with
// the counts of the given windows, into its result. A failure in the
// further windows (the traced run's, in a full run) also makes the
// result incorrect.
func (m *measured) conclude(windows []*window, further ...*window) *workloadResult {
	r := &workloadResult{Windows: windows, Rerun: m.dropped}
	for _, w := range windows {
		r.Attempted += w.Attempted
		r.Failed += w.Failed
		r.Samples += len(w.Lat)
	}
	var err error
	r.Verified, err = m.w.finish()
	switch {
	case err != nil:
		r.Error = err.Error()
	case r.Verified == 0:
		r.Error = "no result was verified"
	default:
		for _, w := range append(windows[:len(windows):len(windows)], further...) {
			if w.Failed > 0 {
				r.Error = fmt.Sprintf("%d op(s) failed: %s", w.Failed, strings.Join(w.Errs, "; "))
				break
			}
		}
	}
	r.Correct = r.Error == ""
	return r
}

// driverRun is the driver's form: one workload, one JSON line.
func driverRun(c *runConfig, name string, traced bool) int {
	m, err := newMeasured(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer m.w.teardown()
	h := &host{}
	var r *workloadResult
	var metrics map[string]metricValue
	if !traced {
		if err := runUntraced(c, h, []*measured{m}); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		r = m.conclude(m.windows)
		metrics = valuesOf(endToEndDefs, m.pooled())
	} else {
		if err := prepare(c, h, m, 1, c.warmup()); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		layers, err := driveAll(c)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		tr := newTracer()
		windows, own := runTraced(c, h, m, tr)
		r = m.conclude(windows)
		for k, v := range own {
			layers[k] = v
		}
		for k, v := range h.layers() {
			layers[k] = v
		}
		// Every per-layer metric is reported on every workload; one that
		// has no meaning there (serve.* on a build) reads zero.
		for _, d := range perLayerDefs {
			if _, ok := layers[d.Name]; !ok {
				layers[d.Name] = 0
			}
		}
		metrics = valuesOf(perLayerDefs, layers)
		if err := writeTrace(filepath.Join(c.root, ".bench_build", "trace."+name+".json"), tr.closed()); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
		}
	}
	if r.Error != "" {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", name, r.Error)
	}
	printMetrics(os.Stderr, name, metrics)
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]driverValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]driverValue, len(metrics))}
	for k, v := range metrics {
		line.Metrics[k] = driverValue{v.Value, v.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measureAll is a full run: all six workloads with their windows
// interleaved, then — separate from, and after, the run the end-to-end
// numbers come from — the unit drives and each workload's traced run.
func measureAll(c *runConfig) (*result, map[string][]span, error) {
	h := &host{}
	var all []*measured
	for _, d := range workloadDefs {
		m, err := newMeasured(d.Name)
		if err != nil {
			return nil, nil, err
		}
		defer m.w.teardown()
		all = append(all, m)
	}
	start := time.Now()
	if err := runUntraced(c, h, all); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "benchmark: untraced run took %.0f s\n", time.Since(start).Seconds())
	res := &result{Seed: c.seed, Seconds: c.seconds, Workloads: make(map[string]*workloadResult)}
	pooled := make(map[string]map[string]float64)
	for _, m := range all {
		pooled[m.name] = m.pooled()
	}

	start = time.Now()
	layers, err := driveAll(c)
	if err != nil {
		return nil, nil, err
	}
	tc := *c
	tc.seconds = c.seconds / 2
	traces := make(map[string][]span)
	for _, m := range all {
		tr := newTracer()
		windows, own := runTraced(&tc, h, m, tr)
		traces[m.name] = tr.closed()
		r := m.conclude(m.windows, windows...)
		r.TailPercentile, r.TailMS = tailPercentile(m.latencies())
		r.Metrics = valuesOf(fullRunDefs, pooled[m.name])
		r.Layers = valuesOf(perLayerDefs, own)
		res.Workloads[m.name] = r
	}
	fmt.Fprintf(os.Stderr, "benchmark: traced run took %.0f s\n", time.Since(start).Seconds())
	for k, v := range h.layers() {
		layers[k] = v
	}
	res.Layers = valuesOf(perLayerDefs, layers)
	res.Host = h.info(c.root)
	return res, traces, nil
}

// fullRun makes a full run, prints every metric by name and writes the
// result and trace.json.
func fullRun(c *runConfig, outPath string) int {
	res, traces, err := measureAll(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printResult(os.Stdout, res)
	if outPath != "" {
		b, err := json.MarshalIndent(res, "", " ")
		if err == nil {
			err = os.WriteFile(outPath, append(b, '\n'), 0o644)
		}
		if err == nil {
			var tb []byte
			if tb, err = json.Marshal(traces); err == nil {
				err = os.WriteFile(filepath.Join(filepath.Dir(outPath), "trace.json"), tb, 0o644)
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	for _, r := range res.Workloads {
		if !r.Correct {
			return 1
		}
	}
	return 0
}

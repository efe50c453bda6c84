package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// printMetrics lists one workload's metrics by name with their units.
func printMetrics(w io.Writer, workload string, metrics map[string]metricValue) {
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	for _, name := range sortedKeys(metrics) {
		v := metrics[name]
		exact := ""
		if v.Exact {
			exact = "exact"
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t%s\n", workload, name, v.Value, v.Unit, exact)
	}
	tw.Flush()
}

// printResult prints every metric of a full run: the end-to-end table,
// then each workload's traced metrics, then the unit drives'.
func printResult(w io.Writer, res *result) {
	h := res.Host
	fmt.Fprintf(w, "host: nproc %d, GOMAXPROCS %d, %s, commit %s, calib %.2f ms, %d perturbed window(s); seed %d, %g s per workload\n\n",
		h.NProc, h.GOMAXPROCS, h.Go, h.Commit, h.CalibMS, h.Perturbed, res.Seed, res.Seconds)
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "workload\t")
	for _, d := range fullRunDefs {
		fmt.Fprintf(tw, "%s (%s)\t", d.Name, d.Unit)
	}
	fmt.Fprint(tw, "samples\tops_attempted\tops_failed\ttail\t\n")
	for _, wd := range workloadDefs {
		r := res.Workloads[wd.Name]
		if r == nil {
			continue
		}
		fmt.Fprintf(tw, "%s\t", wd.Name)
		for _, d := range fullRunDefs {
			fmt.Fprintf(tw, "%.4g\t", r.Metrics[d.Name].Value)
		}
		tail := "-"
		if r.TailPercentile > 0 {
			tail = fmt.Sprintf("p%g %.4g ms", r.TailPercentile, r.TailMS)
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%s\t\n", r.Samples, r.Attempted, r.Failed, tail)
	}
	tw.Flush()
	for _, wd := range workloadDefs {
		if r := res.Workloads[wd.Name]; r != nil {
			if r.Error != "" {
				fmt.Fprintf(w, "\n%s: INCORRECT: %s\n", wd.Name, r.Error)
			}
			fmt.Fprintln(w)
			printMetrics(w, wd.Name, r.Layers)
		}
	}
	fmt.Fprintln(w)
	printMetrics(w, "-", res.Layers)
}

func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints one row per (workload, metric) of two result
// files and returns 1 if the new one regresses: an end-to-end metric
// worse than the old by more than its bound, an exact per-layer metric
// that differs, or a higher share of failed ops.
func compareFiles(w io.Writer, oldPath, newPath string) int {
	a, err := readResult(oldPath)
	if err == nil {
		var b *result
		if b, err = readResult(newPath); err == nil {
			if compareResults(w, a, b) {
				return 0
			}
			return 1
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

// worseBy returns how much worse b is than a as a share of a, in the
// metric's bad direction (negative: better).
func worseBy(v metricValue, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if v.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareResults reports whether b is no regression against a.
func compareResults(w io.Writer, a, b *result) bool {
	ok := true
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tunit\tchange\tbound\tverdict")
	row := func(workload, name string, va metricValue, vb *metricValue) {
		if vb == nil {
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t-\t%s\t\t\tmissing\n", workload, name, va.Value, va.Unit)
			ok = ok && va.Bound == 0 && !va.Exact
			return
		}
		change := 0.0
		if va.Value != 0 {
			change = (vb.Value - va.Value) / va.Value
		}
		bound, verdict := "", ""
		switch {
		case va.Bound > 0:
			allowed := va.Bound
			if va.Value != 0 && va.AbsSlack/va.Value > allowed {
				allowed = va.AbsSlack / va.Value
			}
			bound = fmt.Sprintf("%.1f%%", 100*allowed)
			verdict = "ok"
			if worseBy(va, va.Value, vb.Value) > allowed {
				verdict, ok = "REGRESSION", false
			}
		case va.Exact:
			bound, verdict = "exact", "ok"
			if va.Value != vb.Value {
				verdict, ok = "DIFFERS", false
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%+.1f%%\t%s\t%s\n",
			workload, name, va.Value, vb.Value, va.Unit, 100*change, bound, verdict)
	}
	rows := func(workload string, ma, mb map[string]metricValue) {
		for _, name := range sortedKeys(ma) {
			var vb *metricValue
			if v, found := mb[name]; found {
				vb = &v
			}
			row(workload, name, ma[name], vb)
		}
	}
	for _, wd := range workloadDefs {
		ra, rb := a.Workloads[wd.Name], b.Workloads[wd.Name]
		if ra == nil {
			continue
		}
		if rb == nil {
			fmt.Fprintf(tw, "%s\t(all)\t\t-\t\t\t\tmissing\n", wd.Name)
			ok = false
			continue
		}
		rows(wd.Name, ra.Metrics, rb.Metrics)
		fa, fb := failShare(ra), failShare(rb)
		verdict := "ok"
		if fb > fa {
			verdict, ok = "MORE FAILURES", false
		}
		fmt.Fprintf(tw, "%s\tops_failed/ops_attempted\t%.6g\t%.6g\tratio\t\tno rise\t%s\n", wd.Name, fa, fb, verdict)
	}
	for _, wd := range workloadDefs {
		if ra, rb := a.Workloads[wd.Name], b.Workloads[wd.Name]; ra != nil && rb != nil {
			rows(wd.Name, ra.Layers, rb.Layers)
		}
	}
	rows("-", a.Layers, b.Layers)
	tw.Flush()
	if ok {
		fmt.Fprintln(w, "\nno regression: every end-to-end metric within its bound, every exact metric equal")
	} else {
		fmt.Fprintln(w, "\nREGRESSION: see the verdict column")
	}
	return ok
}

func failShare(r *workloadResult) float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

package repro_test

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/castore"
	"repro/internal/detmake"
	"repro/internal/serve"
	"repro/internal/workload"
)

// TestMachinesShareDepot: every machine ends into one process-wide depot
// of cleared frames and starts by drawing on it, while other machines run.
// Here detmake builds, stripe sessions that open, step, suspend, resume and
// close, and par_fine's programs run in parallel goroutines, two of each,
// and everything they report — results, virtual times, checksums, image
// bytes, StepResult.Pages — must equal what each reports run alone, at
// GOMAXPROCS 1 and 4. It is meant for -race (`make race`).
func TestMachinesShareDepot(t *testing.T) {
	jobs := depotJobs(t)
	var want []string
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		alone := make([]string, len(jobs))
		for i, job := range jobs {
			alone[i] = job()
		}
		together := make([]string, 2*len(jobs))
		var wg sync.WaitGroup
		for i := range together {
			wg.Add(1)
			go func() {
				defer wg.Done()
				together[i] = jobs[i%len(jobs)]()
			}()
		}
		wg.Wait()
		runtime.GOMAXPROCS(prev)
		if want == nil {
			want = alone
		}
		for i, got := range alone {
			if got != want[i] {
				t.Errorf("GOMAXPROCS %d, job %d alone:\n got %s\nwant %s", procs, i, got, want[i])
			}
		}
		for i, got := range together {
			if got != want[i%len(jobs)] {
				t.Errorf("GOMAXPROCS %d, job %d beside the others:\n got %s\nwant %s", procs, i%len(jobs), got, want[i%len(jobs)])
			}
		}
	}
}

// depotJobs returns the test's jobs, each a function that runs one and
// reports what it observed as a string (an error is reported there too,
// so a job can run on any goroutine).
func depotJobs(t *testing.T) []func() string {
	var jobs []func() string
	jobs = append(jobs, func() string { return depotBuild(t) })
	for _, arg := range []uint64{3, 7} {
		jobs = append(jobs, func() string { return depotStripe(arg) })
	}
	for _, s := range workload.Specs() {
		if s.Granularity != "fine" {
			continue
		}
		jobs = append(jobs, func() string {
			size := s.DefaultSize
			res := repro.Run(repro.Options{
				Kernel:     repro.MachineConfig{CPUsPerNode: 2},
				SharedSize: s.SharedBytes(size),
			}, func(rt *repro.RT) uint64 { return s.Det(rt, 2, size) })
			return fmt.Sprintf("%s: %v %v ret %d vt %d insns %d", s.Name, res.Status, res.Err, res.Ret, res.VT, res.Insns)
		})
	}
	return jobs
}

// depotBuild builds a small graph cold and then warm into one store and
// reports both builds' results.
func depotBuild(t *testing.T) string {
	var tasks []*detmake.Task
	var objs []string
	sources := make(map[string][]byte)
	for i := 0; i < 6; i++ {
		in, obj := fmt.Sprintf("src/f%d.c", i), fmt.Sprintf("out/f%d.o", i)
		sources[in] = []byte(strings.Repeat(fmt.Sprintf("int f%d(void);\n", i), 40))
		tasks = append(tasks, &detmake.Task{ID: fmt.Sprint("cc", i), Action: "derive", Args: []string{fmt.Sprint(i)},
			Inputs: []string{in}, Outputs: []string{obj}})
		objs = append(objs, obj)
	}
	tasks = append(tasks, &detmake.Task{ID: "link", Action: "concat", Inputs: objs, Outputs: []string{"out/a.out"}})
	g, err := detmake.NewGraph(tasks)
	if err != nil {
		t.Error(err)
		return err.Error()
	}
	store := castore.NewMemStore()
	var out strings.Builder
	for _, pass := range []string{"cold", "warm"} {
		res, err := detmake.Build(detmake.Config{Graph: g, Sources: sources, Store: store, Jobs: 2})
		fmt.Fprintf(&out, "%s: %v stats %+v tree %x checksum %#x vt %d; ", pass, err, res.Stats, res.TreeDigest, res.Checksum, res.VT)
	}
	return out.String()
}

// depotStripe opens a stripe session, steps it two barriers, suspends
// it, resumes it on a second session and steps that to the end, and
// reports every StepResult, the suspended image's hash and the result.
func depotStripe(arg uint64) string {
	p := serve.StripeProgram(4, 8, 1024)(arg)
	opts := repro.WithMachine(repro.MachineConfig{CPUsPerNode: 4})
	store := repro.NewMemStore()
	var out strings.Builder
	fail := func(err error) string { return fmt.Sprintf("%s error: %v", out.String(), err) }
	s, err := repro.NewSession(opts)
	if err != nil {
		return fail(err)
	}
	if err := s.Bind(p); err != nil {
		return fail(err)
	}
	sr, err := s.Step(2)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(&out, "%+v; ", sr)
	m, err := s.Suspend(store)
	if err != nil {
		return fail(err)
	}
	if err := s.Close(); err != nil {
		return fail(err)
	}
	img, err := repro.LoadImage(store, m)
	if err != nil {
		return fail(err)
	}
	b, err := img.Bytes()
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(&out, "image %x; ", sha256.Sum256(b))
	r, err := repro.NewSession(opts)
	if err != nil {
		return fail(err)
	}
	if err := r.BindSuspended(p, store, m); err != nil {
		return fail(err)
	}
	for done := false; !done; {
		sr, err := r.Step(3)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(&out, "%+v; ", sr)
		done = sr.Done
	}
	if err := r.Close(); err != nil {
		return fail(err)
	}
	return out.String()
}

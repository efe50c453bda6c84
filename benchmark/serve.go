package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro"
	"repro/internal/castore"
	"repro/internal/serve"
)

// The session workloads drive cmd/detserved's "stripe" program. The
// daemon's program catalogue and machine shape live in package main
// there, so they are restated here; the verification below (a served
// result's ret and virtual time must equal an in-process run's) fails
// if the two ever drift apart.
const (
	stripeThreads = 4
	stripePhases  = 8
	stripeWords   = 1024
)

var stripe = serve.StripeProgram(stripeThreads, stripePhases, stripeWords)

func daemonSessionOpts() []repro.SessionOption {
	return []repro.SessionOption{
		repro.WithMachine(repro.MachineConfig{CPUsPerNode: 4, MergeWorkers: 1}),
	}
}

const (
	// serveClients is the closed loop's width: two callers, each waiting
	// for its reply before sending the next request, over two
	// connections — as many as the reference host has cores.
	serveClients = 2
	serveWorkers = 2
	// verifyEvery: the first op of every client in every window and every
	// 4th after it are followed at once, on the client's goroutine, by
	// the reference run that verifies them — often enough that the
	// reference sees the host the ops see.
	verifyEvery = 4
)

// backend is how a client reaches a session server.
type backend interface {
	open(tenant string, arg uint64) (string, error)
	run(tenant, id string) (ret uint64, vt int64, err error)
	close(tenant, id string) error
	stats() (serve.Metrics, error)
}

// httpBackend talks to a detserved over loopback HTTP.
type httpBackend struct {
	base   string
	client *http.Client
}

func newHTTPBackend(base string) *httpBackend {
	return &httpBackend{base: base, client: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients},
		Timeout:   30 * time.Second,
	}}
}

func (b *httpBackend) call(method, path string, req, reply any) error {
	var body io.Reader
	if req != nil {
		data, err := json.Marshal(req)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	hr, err := http.NewRequest(method, b.base+path, body)
	if err != nil {
		return err
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := b.client.Do(hr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	// Read to the end even when the reply is not wanted: the connection
	// is only reused once its body is drained.
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", path, resp.Status, strings.TrimSpace(string(data)))
	}
	if reply == nil {
		return nil
	}
	if err := json.Unmarshal(data, reply); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

type sessionReq struct {
	Tenant string `json:"tenant"`
	ID     string `json:"id"`
}

func (b *httpBackend) open(tenant string, arg uint64) (string, error) {
	var reply struct {
		ID string `json:"id"`
	}
	err := b.call(http.MethodPost, "/v1/open", map[string]any{"tenant": tenant, "program": "stripe", "arg": arg}, &reply)
	return reply.ID, err
}

func (b *httpBackend) run(tenant, id string) (uint64, int64, error) {
	var reply struct {
		Status string `json:"status"`
		Ret    uint64 `json:"ret"`
		VT     int64  `json:"vt"`
	}
	if err := b.call(http.MethodPost, "/v1/run", sessionReq{tenant, id}, &reply); err != nil {
		return 0, 0, err
	}
	if reply.Status != "halted" {
		return 0, 0, fmt.Errorf("/v1/run: session %s ended %q", id, reply.Status)
	}
	return reply.Ret, reply.VT, nil
}

func (b *httpBackend) close(tenant, id string) error {
	return b.call(http.MethodPost, "/v1/close", sessionReq{tenant, id}, nil)
}

func (b *httpBackend) stats() (serve.Metrics, error) {
	var m serve.Metrics
	err := b.call(http.MethodGet, "/v1/stats", nil, &m)
	return m, err
}

// inprocBackend calls a serve.Server in this process.
type inprocBackend struct {
	srv *serve.Server
}

func (b *inprocBackend) open(tenant string, arg uint64) (string, error) {
	id, err := b.srv.Open(tenant, "stripe", arg)
	return string(id), err
}

func (b *inprocBackend) run(tenant, id string) (uint64, int64, error) {
	res, err := b.srv.Run(tenant, serve.SessionID(id))
	if err != nil {
		return 0, 0, err
	}
	if res.Status.String() != "halted" {
		return 0, 0, fmt.Errorf("session %s ended %v: %v", id, res.Status, res.Err)
	}
	return res.Ret, res.VT, nil
}

func (b *inprocBackend) close(tenant, id string) error {
	return b.srv.CloseSession(tenant, serve.SessionID(id))
}

func (b *inprocBackend) stats() (serve.Metrics, error) { return b.srv.Stats(), nil }

// daemon is a spawned detserved.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
}

// liveDaemons is every child still running, so that whatever ends the
// benchmark — a return, a panic in main, a signal — can kill them all.
var liveDaemons struct {
	sync.Mutex
	list []*daemon
}

func killDaemons() {
	liveDaemons.Lock()
	ds := append([]*daemon(nil), liveDaemons.list...)
	liveDaemons.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// startDaemon spawns bin on a port chosen free at run time and waits
// until /v1/stats answers.
func startDaemon(bin, storeDir string, resident int) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()

	d := &daemon{base: "http://" + addr}
	d.cmd = exec.Command(bin, "-addr", addr, "-store", storeDir,
		"-workers", fmt.Sprint(serveWorkers), "-resident", fmt.Sprint(resident), "-slice", "1")
	d.cmd.Stderr = &d.stderr
	// If the benchmark dies without running its clean-up (a panic on
	// another goroutine, SIGKILL), the kernel kills the child.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	liveDaemons.Lock()
	liveDaemons.list = append(liveDaemons.list, d)
	liveDaemons.Unlock()

	probe := newHTTPBackend(d.base)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err = probe.stats(); err == nil {
			return d, nil
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("detserved did not answer /v1/stats within 10 s: %v; stderr: %s", err, d.stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop kills the child and waits until it has ended.
func (d *daemon) stop() {
	liveDaemons.Lock()
	i := slices.Index(liveDaemons.list, d)
	if i >= 0 {
		liveDaemons.list = slices.Delete(liveDaemons.list, i, i+1)
	}
	liveDaemons.Unlock()
	if i < 0 {
		return
	}
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait()
}

// served is one reply.
type served struct {
	arg, ret uint64
	vt       int64
}

// serveWorkload is serve_hot or serve_evict: one op is POST /v1/open
// (stripe, arg from the seed) → /v1/run → /v1/close against a spawned
// detserved. The two differ only in the daemon's -resident flag.
type serveWorkload struct {
	name     string
	resident int

	dir      string
	storeDir string
	daemon   *daemon
	outside  backend
	inproc   [2]*inprocServer // plain, traced

	args     [serveClients]rng
	verified int
}

func (s *serveWorkload) setup(c *runConfig) error {
	for i := range s.args {
		s.args[i] = rng(c.seed*serveClients + uint64(i))
	}
	var err error
	if s.dir, err = os.MkdirTemp(c.work, s.name+"-*"); err != nil {
		return err
	}
	if c.smoke {
		srv, err := s.newInproc(nil)
		if err != nil {
			return err
		}
		s.inproc[0] = srv
		s.outside = srv.backend
		return nil
	}
	bin := filepath.Join(s.dir, "detserved")
	build := exec.Command("go", "build", "-o", bin, "./cmd/detserved")
	build.Dir = c.root
	if out, err := build.CombinedOutput(); err != nil {
		return fmt.Errorf("building cmd/detserved: %v: %s", err, out)
	}
	s.storeDir = filepath.Join(s.dir, "store")
	if s.daemon, err = startDaemon(bin, s.storeDir, s.resident); err != nil {
		return err
	}
	s.outside = newHTTPBackend(s.daemon.base)
	return nil
}

func (s *serveWorkload) teardown() {
	if s.daemon != nil {
		s.daemon.stop()
		s.daemon = nil
	}
	for i, srv := range s.inproc {
		if srv != nil {
			srv.srv.Shutdown()
			s.inproc[i] = nil
		}
	}
	os.RemoveAll(s.dir)
}

// inprocServer is a serve.Server in this process with the daemon's
// configuration, for the replay.
type inprocServer struct {
	srv     *serve.Server
	backend *inprocBackend
	trace   *serveTrace // nil for the plain replay
}

func (s *serveWorkload) newInproc(tr *tracer) (*inprocServer, error) {
	dir, err := os.MkdirTemp(s.dir, "inproc-*")
	if err != nil {
		return nil, err
	}
	ds, err := castore.OpenDirStore(dir)
	if err != nil {
		return nil, err
	}
	cfg := serve.Config{
		Store:       ds,
		SessionOpts: daemonSessionOpts(),
		Workers:     serveWorkers,
		Resident:    s.resident,
		Slice:       1,
		Clock:       func() int64 { return time.Now().UnixNano() },
	}
	maker := stripe
	var st *serveTrace
	if tr != nil {
		st = newServeTrace(tr)
		cfg.Store = &tracedStore{Store: ds, tr: tr, counts: &st.counts, where: st.where}
		cfg.Clock = st.clock
		cfg.Fault = st.fault
		maker = st.maker(stripe)
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	srv.Register("stripe", maker)
	return &inprocServer{srv: srv, backend: &inprocBackend{srv: srv}, trace: st}, nil
}

// target returns the backend (and, when traced, the span hooks) a
// window in mode m drives; the in-process servers are made on first use.
func (s *serveWorkload) target(m mode, tr *tracer) (backend, *serveTrace, error) {
	if m == modeOutside {
		return s.outside, nil, nil
	}
	i := 0 // plain
	if m == modeTraced && tr != nil {
		i = 1
	} else {
		tr = nil
	}
	if s.inproc[i] == nil {
		srv, err := s.newInproc(tr)
		if err != nil {
			return nil, nil, err
		}
		s.inproc[i] = srv
	}
	return s.inproc[i].backend, s.inproc[i].trace, nil
}

// op is one open → run → close. It returns the op's latency and the
// run call's own, in ms, with the served result.
func serveOp(b backend, st *serveTrace, tenant string, arg uint64) (lat, runLat float64, got served, err error) {
	o := st.beginOp()
	defer st.endOp(o)
	start := time.Now()
	done := st.span(o, "serve.open")
	id, err := b.open(tenant, arg)
	done()
	if err != nil {
		return 0, 0, served{}, err
	}
	st.bind(o, id)
	t1 := time.Now()
	done = st.span(o, "serve.run")
	ret, vt, err := b.run(tenant, id)
	done()
	runLat = ms(time.Since(t1))
	done = st.span(o, "serve.close")
	cerr := b.close(tenant, id)
	done()
	if err == nil {
		err = cerr
	}
	return ms(time.Since(start)), runLat, served{arg, ret, vt}, err
}

func (s *serveWorkload) run(m mode, d time.Duration, tr *tracer) *window {
	w := &window{Samples: make(map[string][]float64)}
	b, st, err := s.target(m, tr)
	if err != nil {
		w.Attempted++
		w.fail(err)
		return w
	}
	cpuNow := selfCPU
	if m == modeOutside && s.daemon != nil {
		pid := s.daemon.cmd.Process.Pid
		cpuNow = func() float64 { c, _ := procCPU(pid); return c }
	}
	cpu, start := cpuNow(), time.Now()
	var parts [serveClients]window
	var verified [serveClients]int
	var wg sync.WaitGroup
	for ci := 0; ci < serveClients; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			part := &parts[ci]
			// A panic here must not end the process with the child alive.
			defer func() {
				if r := recover(); r != nil {
					part.Attempted++
					part.fail(fmt.Errorf("client %d panicked: %v", ci, r))
				}
			}()
			tenant := fmt.Sprintf("c%d", ci)
			n := 0
			loop(part, d, func() (float64, error) {
				lat, runLat, got, err := serveOp(b, st, tenant, s.args[ci].next())
				if err != nil {
					return 0, err
				}
				part.sample("run", runLat)
				n++
				if n%verifyEvery == 1 {
					if err := reference(part, got); err != nil {
						return 0, err
					}
					verified[ci]++
				}
				return lat, nil
			})
		}()
	}
	wg.Wait()
	w.Wall, w.CPU = time.Since(start).Seconds(), cpuNow()-cpu
	for ci := range parts {
		p := &parts[ci]
		w.Attempted += p.Attempted
		w.Failed += p.Failed
		w.Lat = append(w.Lat, p.Lat...)
		w.Errs = append(w.Errs, p.Errs...)
		for _, k := range sortedKeys(p.Samples) {
			w.Samples[k] = append(w.Samples[k], p.Samples[k]...)
		}
		s.verified += verified[ci]
	}
	return w
}

// reference replays one reply in this process — one shot, no slicing,
// no store, no HTTP — and times it: the session workloads' reference. A
// reply whose ret or virtual time differs from the replay's is a failed
// op.
func reference(w *window, got served) error {
	sess, err := repro.NewSession(daemonSessionOpts()...)
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := sess.RunProgram(stripe(got.arg))
	w.sample("den:op", ms(time.Since(start)))
	switch {
	case err != nil:
		return fmt.Errorf("reference run: %w", err)
	case res.Ret != got.ret || res.VT != got.vt:
		return fmt.Errorf("arg %d: served ret %#x vt %d, in-process run ret %#x vt %d",
			got.arg, got.ret, got.vt, res.Ret, res.VT)
	}
	return nil
}

func (s *serveWorkload) finish() (int, error) {
	m, err := s.outside.stats()
	if err != nil {
		return s.verified, err
	}
	switch {
	case m.BitEqFail != 0:
		err = fmt.Errorf("daemon reports BitEqFail = %d", m.BitEqFail)
	case s.resident > serveClients && m.Evictions != 0:
		err = fmt.Errorf("%d evictions with every session resident", m.Evictions)
	case s.resident < serveClients && m.Evictions == 0:
		err = fmt.Errorf("no eviction with the resident cap below the in-flight count")
	}
	return s.verified, err
}

// layer reads the daemon's own counters (cumulative since it started,
// warm-up included), its peak RSS and its store directory.
func (s *serveWorkload) layer(out map[string]float64) {
	m, err := s.outside.stats()
	if err != nil || m.Completed == 0 || m.Slices == 0 {
		return
	}
	out["serve.slices_per_op"] = float64(m.Slices) / float64(m.Completed)
	out["serve.evictions_per_slice"] = float64(m.Evictions) / float64(m.Slices)
	out["serve.resumes_per_slice"] = float64(m.Resumes) / float64(m.Slices)
	out["serve.slice_ms"] = float64(m.WallNS) / float64(m.Slices) / 1e6
	if m.Resumes > 0 {
		out["serve.resume_slice_ms"] = float64(m.ResumeNS) / float64(m.Resumes) / 1e6
	}
	if s.daemon != nil {
		out["detserved.peak_rss_mb"] = procPeakRSS(s.daemon.cmd.Process.Pid)
		out["detserved.store_bytes_per_op"] = float64(dirBytes(s.storeDir)) / float64(m.Completed)
	}
}

// serveTrace ties the in-process server's hooks to ops. The client
// goroutine owns an op's root, open, run and close spans. A slice runs
// on a worker goroutine: the Fault hook (called with the session's ID
// just before the slice) says whose slice it is, and the two Clock
// calls around Session.Step open and close its session.step span; store
// calls on that goroutine belong to the step while it is open and to
// the op's serve.run span otherwise (an eviction after the slice).
// Program callbacks run on machine goroutines and find their op through
// the maker, which serve calls inside Open on the client's goroutine.
// All methods accept a nil receiver, which records nothing.
type serveTrace struct {
	tr     *tracer
	counts storeCounts

	mu        sync.Mutex
	nextOp    int
	byG       map[uint64]*opSpans
	inStep    map[uint64]bool
	bySession map[serve.SessionID]*opSpans
}

// opSpans holds the open span IDs of one op; -1 means not open.
type opSpans struct {
	op, root, run, step int
}

func newServeTrace(tr *tracer) *serveTrace {
	return &serveTrace{tr: tr, byG: make(map[uint64]*opSpans), inStep: make(map[uint64]bool),
		bySession: make(map[serve.SessionID]*opSpans)}
}

func (st *serveTrace) beginOp() *opSpans {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.nextOp++
	o := &opSpans{op: st.nextOp, run: -1, step: -1}
	o.root = st.tr.begin("op", o.op, -1)
	st.byG[goid()] = o
	return o
}

func (st *serveTrace) endOp(o *opSpans) {
	if st == nil {
		return
	}
	st.tr.end(o.root)
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.byG, goid())
	for id, v := range st.bySession {
		if v == o {
			delete(st.bySession, id)
		}
	}
}

func (st *serveTrace) bind(o *opSpans, id string) {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.bySession[serve.SessionID(id)] = o
	st.mu.Unlock()
}

// span opens a span under the op's root on the client's goroutine and
// returns what closes it. The serve.run span is remembered: steps and
// evictions hang under it.
func (st *serveTrace) span(o *opSpans, name string) func() {
	if st == nil {
		return func() {}
	}
	id := st.tr.begin(name, o.op, o.root)
	if name == "serve.run" {
		st.mu.Lock()
		o.run = id
		st.mu.Unlock()
	}
	return func() { st.tr.end(id) }
}

func (st *serveTrace) fault(ev serve.FaultEvent) serve.FaultAction {
	st.mu.Lock()
	st.byG[goid()] = st.bySession[ev.Session]
	st.mu.Unlock()
	return serve.FaultNone
}

func (st *serveTrace) clock() int64 {
	g := goid()
	st.mu.Lock()
	if o := st.byG[g]; o != nil {
		if st.inStep[g] {
			st.tr.end(o.step)
			o.step = -1
		} else {
			o.step = st.tr.begin("session.step", o.op, o.run)
		}
		st.inStep[g] = !st.inStep[g]
	}
	st.mu.Unlock()
	return time.Now().UnixNano()
}

// where places a store call made on the calling goroutine.
func (st *serveTrace) where() (op, parent int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	o := st.byG[goid()]
	switch {
	case o == nil:
		return 0, -1
	case o.step >= 0:
		return o.op, o.step
	case o.run >= 0:
		return o.op, o.run
	}
	return o.op, o.root
}

// maker wraps a program maker so that every callback of the programs it
// makes is a span under the op's open session.step.
func (st *serveTrace) maker(inner serve.ProgramMaker) serve.ProgramMaker {
	return func(arg uint64) repro.Program {
		st.mu.Lock()
		o := st.byG[goid()]
		st.mu.Unlock()
		if o == nil {
			return inner(arg)
		}
		return instrument(inner(arg), func(name string) func() {
			st.mu.Lock()
			id := st.tr.begin(name, o.op, o.step)
			st.mu.Unlock()
			return func() { st.tr.end(id) }
		})
	}
}

// instrument wraps a program's callbacks: around is called with the
// callback's span name and returns what to call when it is over.
func instrument(p repro.Program, around func(name string) func()) repro.Program {
	layout, init, phase, result := p.Layout, p.Init, p.Phase, p.Result
	if layout != nil {
		p.Layout = func(rt *repro.RT) { defer around("program.layout")(); layout(rt) }
	}
	if init != nil {
		p.Init = func(rt *repro.RT) { defer around("program.init")(); init(rt) }
	}
	if phase != nil {
		p.Phase = func(rt *repro.RT, ph int) error { defer around("program.phase")(); return phase(rt, ph) }
	}
	if result != nil {
		p.Result = func(rt *repro.RT) uint64 { defer around("program.result")(); return result(rt) }
	}
	return p
}

// Detserved is the deterministic session-serving daemon: a long-lived
// HTTP front end over internal/serve, multiplexing many tenants'
// sessions across a bounded worker pool — resident sessions are live
// machines parked between slices — with checkpoint-backed eviction into
// an on-disk content-addressed store.
//
// Usage:
//
//	go run ./cmd/detserved -addr :8080 -store /var/lib/detserved \
//	    -workers 4 -resident 32 -slice 2
//
// Endpoints (JSON over POST unless noted; bodies over 1 MiB are refused
// with 413, malformed ones with 400):
//
//	/v1/open  {"tenant","program","arg"}  -> {"id"}
//	/v1/run   {"tenant","id"}             -> {"status","ret","vt","insns"}
//	/v1/evict {"tenant","id"}             -> {}
//	/v1/close {"tenant","id"}             -> {}
//	/v1/gc    {}                          -> collection stats
//	/v1/stats (GET)                       -> serve.Metrics plus "Process" (this process's collector and memory)
//
// Programs are the built-in stripe workloads (stripe-small, stripe,
// stripe-large); arg seeds the computation, so a request's result is a
// pure function of (program, arg) — re-POST /v1/run all you like.
//
// Unlike internal/serve, this package may read the wall clock (see
// docs/determinism-rules.md): it lives at the edge, where wall time is
// only billed against tenant budgets, never fed into a computation. It is
// also where process-global runtime settings belong: the daemon sets its
// collector's target at start-up (paceGC; docs/serving.md, Garbage)
// unless the operator chose one through the GOGC environment variable.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"repro"
	"repro/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		storeDir = flag.String("store", "", "checkpoint store directory (required)")
		workers  = flag.Int("workers", 4, "worker pool size")
		resident = flag.Int("resident", 32, "max sessions holding a live machine (0 = unbounded)")
		slice    = flag.Int("slice", 1, "phase budget per timeslice")
		maxOpen  = flag.Int("max-open", 0, "default per-tenant open-session cap (0 = unlimited)")
		maxPages = flag.Int("max-pages", 0, "default per-tenant cap on a resting session's footprint (page tables + pages)")
		maxVT    = flag.Int64("max-vt", 0, "default per-tenant virtual-time budget")
		maxWall  = flag.Duration("max-wall", 0, "default per-tenant wall-clock budget")
	)
	flag.Parse()
	paceGC()
	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "detserved: -store is required")
		os.Exit(2)
	}
	store, err := repro.OpenDirStore(*storeDir)
	if err != nil {
		log.Fatalf("detserved: %v", err)
	}
	srv, err := newServer(store, serve.Config{
		Workers:  *workers,
		Resident: *resident,
		Slice:    *slice,
		DefaultCaps: serve.TenantCaps{
			MaxOpen:   *maxOpen,
			MaxPages:  *maxPages,
			MaxVT:     *maxVT,
			MaxWallNS: int64(*maxWall),
		},
		Clock: func() int64 { return time.Now().UnixNano() },
	})
	if err != nil {
		log.Fatalf("detserved: %v", err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("detserved: %v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("detserved: serving on %s (store %s, %d workers, resident cap %d)",
		ln.Addr(), *storeDir, *workers, *resident)
	if err := serveUntil(ctx, httpServer(*addr, srv.mux()), ln, srv); err != nil {
		log.Fatalf("detserved: %v", err)
	}
	log.Print("detserved: shut down")
}

// shutdownGrace bounds how long a stopping daemon waits for requests in
// flight; a /v1/run can legitimately take longer, and is cut off.
const shutdownGrace = 10 * time.Second

// serveUntil serves hs on ln until ctx is done — the daemon's SIGINT or
// SIGTERM — then stops accepting, gives the requests in flight
// shutdownGrace to finish, and shuts the fabric down. It returns nil
// after a clean stop, or the listener's error if serving failed first.
func serveUntil(ctx context.Context, hs *http.Server, ln net.Listener, srv *server) error {
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	var err error
	select {
	case err = <-served:
	case <-ctx.Done():
		grace, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if err = hs.Shutdown(grace); err == nil {
			err = <-served
		}
	}
	srv.Shutdown()
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// gcPercent is the collector target of a daemon whose operator set none.
// The daemon's live heap is a few parked machines — under 1 MB on the
// benchmark's load — and every request leaves about 0.65 MB of dead
// objects behind (1.3 MB while evicting): each session's machine recycles
// the pages and tables its spaces free, so what dies is mostly the
// machine's first frames. At Go's default of 100 the process therefore
// collects 0.3 times a request (0.7 while evicting); at 400, 0.05 (0.14).
// No setting below 400 comes within 5 % of the floor of the latency curve
// (the sweep is in docs/serving.md); 400 costs ≈ 12 MB of resident memory
// with every session resident, ≈ 19 MB while evicting.
const gcPercent = 400

// paceGC applies gcPercent unless GOGC is set in the environment, which
// the runtime has then already honoured.
func paceGC() {
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(gcPercent)
	}
}

// Limits on what a client may make the daemon hold or wait for. Request
// bodies are one small JSON object; a client that sends more, or sends
// it slowly, is cut off rather than served. There is no write timeout:
// /v1/run legitimately blocks for as long as the session takes.
const (
	maxBodyBytes      = 1 << 20
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// httpServer is the daemon's listener configuration: the handler behind
// the timeouts above.
func httpServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// server ties the serve fabric to its HTTP surface.
type server struct {
	s *serve.Server
}

// newServer builds the fabric with the built-in program catalog. The
// machine shape is fixed for the server's lifetime: a resume must match
// the shape its checkpoint was captured under.
func newServer(store repro.ChunkStore, cfg serve.Config) (*server, error) {
	cfg.Store = store
	cfg.SessionOpts = []repro.SessionOption{
		repro.WithMachine(repro.MachineConfig{CPUsPerNode: 4}),
	}
	s, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	s.Register("stripe-small", serve.StripeProgram(2, 4, 128))
	s.Register("stripe", serve.StripeProgram(4, 8, 1024))
	s.Register("stripe-large", serve.StripeProgram(8, 16, 8192))
	return &server{s: s}, nil
}

func (h *server) Shutdown() { h.s.Shutdown() }

func (h *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/open", h.open)
	mux.HandleFunc("/v1/run", h.run)
	mux.HandleFunc("/v1/evict", h.evict)
	mux.HandleFunc("/v1/close", h.close)
	mux.HandleFunc("/v1/gc", h.gc)
	mux.HandleFunc("/v1/stats", h.stats)
	return mux
}

// sessionReq addresses one tenant's session.
type sessionReq struct {
	Tenant string          `json:"tenant"`
	ID     serve.SessionID `json:"id"`
}

// runReply is the JSON form of a completed session's RunResult.
type runReply struct {
	Status string `json:"status"`
	Ret    uint64 `json:"ret"`
	VT     int64  `json:"vt"`
	Insns  int64  `json:"insns"`
}

func (h *server) open(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Tenant  string `json:"tenant"`
		Program string `json:"program"`
		Arg     uint64 `json:"arg"`
	}
	if !decode(w, r, &req) {
		return
	}
	id, err := h.s.Open(req.Tenant, req.Program, req.Arg)
	if err != nil {
		fail(w, err)
		return
	}
	reply(w, map[string]serve.SessionID{"id": id})
}

func (h *server) run(w http.ResponseWriter, r *http.Request) {
	var req sessionReq
	if !decode(w, r, &req) {
		return
	}
	res, err := h.s.Run(req.Tenant, req.ID)
	if err != nil {
		fail(w, err)
		return
	}
	reply(w, runReply{Status: fmt.Sprint(res.Status), Ret: res.Ret, VT: res.VT, Insns: res.Insns})
}

func (h *server) evict(w http.ResponseWriter, r *http.Request) {
	var req sessionReq
	if !decode(w, r, &req) {
		return
	}
	if err := h.s.Evict(req.Tenant, req.ID); err != nil {
		fail(w, err)
		return
	}
	reply(w, struct{}{})
}

func (h *server) close(w http.ResponseWriter, r *http.Request) {
	var req sessionReq
	if !decode(w, r, &req) {
		return
	}
	if err := h.s.CloseSession(req.Tenant, req.ID); err != nil {
		fail(w, err)
		return
	}
	reply(w, struct{}{})
}

func (h *server) gc(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	st, err := h.s.GC()
	if err != nil {
		fail(w, err)
		return
	}
	reply(w, st)
}

// statsReply is /v1/stats: the fabric's counters, flat as they have
// always been, and the process they were counted in beside them.
type statsReply struct {
	serve.Metrics
	Process processStats
}

// processStats is what the daemon's own runtime costs: a collector that
// runs more than once in five requests, or a peak RSS far above
// ResidentPeakPages' worth of memory, is host overhead no fabric counter
// shows.
type processStats struct {
	GCCycles  uint32 // completed collections since the process started
	GCPauseNS uint64 // total stop-the-world pause of those collections
	HeapInUse uint64 // bytes in in-use heap spans
	PeakRSSKB int64  // high-water resident set size (ru_maxrss)
}

func readProcessStats() processStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // on failure PeakRSSKB reads 0
	return processStats{GCCycles: m.NumGC, GCPauseNS: m.PauseTotalNs, HeapInUse: m.HeapInuse, PeakRSSKB: ru.Maxrss}
}

func (h *server) stats(w http.ResponseWriter, r *http.Request) {
	reply(w, statsReply{Metrics: h.s.Stats(), Process: readProcessStats()})
}

func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf("bad request: %v", err), code)
		return false
	}
	return true
}

func reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// fail maps fabric errors onto HTTP statuses: cap refusals are 429
// (come back with budget), unknown names 404, shutdown 503.
func fail(w http.ResponseWriter, err error) {
	var ce *serve.CapError
	code := http.StatusNotFound
	switch {
	case errors.As(err, &ce):
		code = http.StatusTooManyRequests
	case errors.Is(err, serve.ErrClosed):
		code = http.StatusServiceUnavailable
	}
	http.Error(w, err.Error(), code)
}

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
//	/v1/stats (GET)                       -> serve.Metrics
//
// Programs are the built-in stripe workloads (stripe-small, stripe,
// stripe-large); arg seeds the computation, so a request's result is a
// pure function of (program, arg) — re-POST /v1/run all you like.
//
// Unlike internal/serve, this package may read the wall clock (see
// docs/determinism-rules.md): it lives at the edge, where wall time is
// only billed against tenant budgets, never fed into a computation.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
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
	defer srv.Shutdown()
	log.Printf("detserved: serving on %s (store %s, %d workers, resident cap %d)",
		*addr, *storeDir, *workers, *resident)
	log.Fatal(httpServer(*addr, srv.mux()).ListenAndServe())
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

func (h *server) stats(w http.ResponseWriter, r *http.Request) {
	reply(w, h.s.Stats())
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

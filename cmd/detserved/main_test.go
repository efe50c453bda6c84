package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/debug"
	"testing"
	"time"

	"repro"
	"repro/internal/serve"
)

// startTestServer stands up the full HTTP surface over a MemStore.
func startTestServer(t *testing.T) (*httptest.Server, *server) {
	t.Helper()
	h, err := newServer(repro.NewMemStore(), serve.Config{Workers: 2, Resident: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h.mux())
	t.Cleanup(func() { ts.Close(); h.Shutdown() })
	return ts, h
}

// post sends body as JSON and decodes the response into out, asserting
// the expected status code.
func post(t *testing.T, ts *httptest.Server, path string, body, out any, wantCode int) string {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("POST %s: status %d (want %d): %s", path, resp.StatusCode, wantCode, buf.String())
	}
	if out != nil {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("POST %s: bad reply %q: %v", path, buf.String(), err)
		}
	}
	return buf.String()
}

func TestServedEndToEnd(t *testing.T) {
	ts, _ := startTestServer(t)

	// Open + run a few sessions; identical (program, arg) requests from
	// different tenants must produce identical results.
	runOne := func(tenant string, arg uint64) runReply {
		var opened struct {
			ID serve.SessionID `json:"id"`
		}
		post(t, ts, "/v1/open", map[string]any{"tenant": tenant, "program": "stripe-small", "arg": arg}, &opened, 200)
		var res runReply
		post(t, ts, "/v1/run", map[string]any{"tenant": tenant, "id": opened.ID}, &res, 200)
		if res.Status != "halted" || res.VT == 0 {
			t.Fatalf("run %s/%d: %+v", tenant, arg, res)
		}
		// Evict then close: the session's state survives in the store.
		post(t, ts, "/v1/evict", map[string]any{"tenant": tenant, "id": opened.ID}, nil, 200)
		post(t, ts, "/v1/close", map[string]any{"tenant": tenant, "id": opened.ID}, nil, 200)
		return res
	}
	a := runOne("alice", 7)
	b := runOne("bob", 7)
	if a != b {
		t.Fatalf("same program+arg, different results: %+v vs %+v", a, b)
	}
	if c := runOne("alice", 8); c == a {
		t.Fatal("different args produced identical results")
	}

	var gc repro.CollectStats
	post(t, ts, "/v1/gc", struct{}{}, &gc, 200)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// The fabric's counters decode as they always have — the benchmark
	// reads them into a bare serve.Metrics — with the process beside them.
	var m serve.Metrics
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Opened != 3 || m.Completed != 3 || m.Closed != 3 || m.BitEqFail != 0 {
		t.Fatalf("stats: %+v", m)
	}
	var full statsReply
	if err := json.Unmarshal(raw, &full); err != nil {
		t.Fatal(err)
	}
	if full.Metrics != m || full.Process.HeapInUse == 0 || full.Process.PeakRSSKB == 0 {
		t.Fatalf("stats: %s", raw)
	}
}

// TestDaemonPacesGC: with GOGC unset the daemon sets its own collector
// target; a GOGC in the environment is the operator's choice, which the
// runtime has already applied and the daemon leaves alone.
func TestDaemonPacesGC(t *testing.T) {
	const operators = 150
	// The test process's own target, whatever it was, comes back at the end.
	defer debug.SetGCPercent(debug.SetGCPercent(operators))
	for _, tc := range []struct {
		env  string
		want int
	}{{"", gcPercent}, {"150", operators}} {
		debug.SetGCPercent(operators) // what the runtime would have read from GOGC=150
		t.Setenv("GOGC", tc.env)
		if tc.env == "" {
			os.Unsetenv("GOGC") // t.Setenv above restores the original afterwards
		}
		paceGC()
		if got := debug.SetGCPercent(operators); got != tc.want {
			t.Errorf("GOGC=%q: collector target %d, want %d", tc.env, got, tc.want)
		}
	}
}

func TestServedErrors(t *testing.T) {
	ts, h := startTestServer(t)

	// Unknown program and unknown session are 404s.
	post(t, ts, "/v1/open", map[string]any{"tenant": "t", "program": "nope"}, nil, 404)
	post(t, ts, "/v1/run", map[string]any{"tenant": "t", "id": "t/99"}, nil, 404)

	// A cap refusal is 429.
	h.s.SetCaps("capped", serve.TenantCaps{MaxOpen: 1})
	post(t, ts, "/v1/open", map[string]any{"tenant": "capped", "program": "stripe-small"}, nil, 200)
	post(t, ts, "/v1/open", map[string]any{"tenant": "capped", "program": "stripe-small"}, nil, 429)

	// Malformed JSON is 400; GET on a POST endpoint is 405.
	resp, err := http.Post(ts.URL+"/v1/open", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("malformed JSON: status %d", resp.StatusCode)
	}
	if resp, err = http.Get(ts.URL + "/v1/run"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("GET run: status %d", resp.StatusCode)
	}

	// Shut down: further opens are 503.
	h.Shutdown()
	post(t, ts, "/v1/open", map[string]any{"tenant": "t", "program": "stripe-small"}, nil, 503)
}

// TestServedHostileBodies: request bodies are bounded and parsed
// strictly — an oversized body is 413 whether or not it is well-formed
// JSON so far, a malformed or truncated one is 400, and neither reaches
// the fabric (nothing is opened).
func TestServedHostileBodies(t *testing.T) {
	ts, _ := startTestServer(t)
	send := func(path string, body []byte) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	// One JSON string value that is still open when the limit is hit.
	oversized := append([]byte(`{"tenant":"`), bytes.Repeat([]byte("a"), maxBodyBytes+1)...)
	for _, tc := range []struct {
		name string
		path string
		body []byte
		want int
	}{
		{"oversized open", "/v1/open", oversized, http.StatusRequestEntityTooLarge},
		{"oversized run", "/v1/run", oversized, http.StatusRequestEntityTooLarge},
		{"oversized padding", "/v1/close", append(bytes.Repeat([]byte(" "), maxBodyBytes), '{', '}'), http.StatusRequestEntityTooLarge},
		{"truncated object", "/v1/open", []byte(`{"tenant":"t","program":`), http.StatusBadRequest},
		{"wrong type", "/v1/open", []byte(`{"tenant":7}`), http.StatusBadRequest},
		{"not json", "/v1/evict", []byte("\x00\xff\x00"), http.StatusBadRequest},
		{"empty body", "/v1/run", nil, http.StatusBadRequest},
		{"just under the limit", "/v1/open", append([]byte(`{"tenant":"t","program":"stripe-small","arg":1}`),
			bytes.Repeat([]byte(" "), maxBodyBytes-64)...), http.StatusOK},
	} {
		if got := send(tc.path, tc.body); got != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.want)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m serve.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Opened != 1 {
		t.Fatalf("hostile bodies opened sessions: %+v", m)
	}
}

// TestServedListenerTimeouts pins the listener configuration: every
// read-side timeout set, no write timeout (a run may block for as long
// as its session takes).
func TestServedListenerTimeouts(t *testing.T) {
	hs := httpServer("127.0.0.1:0", http.NewServeMux())
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("read-side timeouts unset: %+v", hs)
	}
	if hs.WriteTimeout != 0 {
		t.Fatalf("write timeout %v would cut long runs off", hs.WriteTimeout)
	}
}

// TestServeUntilShutsDown: cancelling serveUntil's context — what SIGINT
// or SIGTERM does to the daemon — returns the serve loop cleanly, with
// the listener closed and the fabric shut down.
func TestServeUntilShutsDown(t *testing.T) {
	h, err := newServer(repro.NewMemStore(), serve.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- serveUntil(ctx, httpServer("", h.mux()), ln, h) }()

	open := func() (*http.Response, error) {
		return http.Post("http://"+ln.Addr().String()+"/v1/open", "application/json",
			bytes.NewReader([]byte(`{"tenant":"t","program":"stripe-small","arg":1}`)))
	}
	resp, err := open()
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open while serving: status %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve loop: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve loop still running after its context was cancelled")
	}
	if _, err := h.s.Open("t", "stripe-small", 2); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("open on the fabric after shutdown: %v, want serve.ErrClosed", err)
	}
	if resp, err := open(); err == nil {
		resp.Body.Close()
		t.Fatal("the listener still accepts after shutdown")
	}
}

package kernel

import (
	"io"
	"sync"
)

// Console is the machine's console device. Only the root space can reach
// it; every other space sees console I/O as file-system state propagated
// through the space hierarchy (§4.3). Input is non-blocking at the device
// level: read returns what is available now, modelling an input FIFO.
// A read is one Read of the host source into the program's buffer, so
// a recorder around the source (trace.Log.RecordInput) logs each read
// that delivers bytes as one chunk: exactly what the program received.
// Once the source fails or ends, the console stays dry.
type Console struct {
	mu  sync.Mutex
	in  io.Reader
	out io.Writer
	eof bool
}

// NewConsole builds a console over the given reader and writer; either
// may be nil (no input / discard output).
func NewConsole(in io.Reader, out io.Writer) *Console {
	return &Console{in: in, out: out}
}

func (c *Console) read(p []byte) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.in == nil || c.eof {
		return 0
	}
	n, err := c.in.Read(p)
	if err != nil {
		c.eof = true
	}
	return n
}

func (c *Console) write(p []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.out != nil {
		c.out.Write(p)
	}
}

// ClockFunc produces clock-device readings: an explicit nondeterministic
// input (§2.1) that a supervising layer can log, replay or synthesize.
type ClockFunc func() int64

// LogicalClock returns a deterministic clock that advances by one per
// reading — the "synthesized input" case.
func LogicalClock() ClockFunc {
	var mu sync.Mutex
	var t int64
	return func() int64 {
		mu.Lock()
		defer mu.Unlock()
		t++
		return t
	}
}

// RandFunc produces entropy-device readings.
type RandFunc func() uint64

// SeededRand returns a deterministic xorshift generator — entropy as an
// explicit, replayable input rather than ambient nondeterminism.
func SeededRand(seed uint64) RandFunc {
	var mu sync.Mutex
	s := seed
	if s == 0 {
		s = 0x9e3779b97f4a7c15
	}
	return func() uint64 {
		mu.Lock()
		defer mu.Unlock()
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
}

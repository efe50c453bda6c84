// Package trace records and replays the explicit nondeterministic inputs
// of a Determinator machine (§2.1 of the paper): clock readings, entropy,
// and console input. Because the kernel eliminates all internal
// nondeterminism, logging these external inputs alone is sufficient to
// replay any computation exactly — the property replay debugging, fault
// tolerance and intrusion analysis rely on. A recording resumed from a
// checkpoint logs what the kernel's restore re-read from the devices,
// and Splice puts the image's recorded prefix in its place, so the log
// is the one an uninterrupted recording would have made.
package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"

	"repro/internal/kernel"
)

// Log holds every nondeterministic input a run consumed, in consumption
// order per device.
type Log struct {
	Clock []int64  `json:"clock"`
	Rand  []uint64 `json:"rand"`
	Input [][]byte `json:"input"` // console input, one entry per device read: the bytes it delivered
}

// Marshal serializes the log.
func (l *Log) Marshal() ([]byte, error) { return json.Marshal(l) }

// Unmarshal parses a serialized log.
func Unmarshal(data []byte) (*Log, error) {
	l := &Log{}
	if err := json.Unmarshal(data, l); err != nil {
		return nil, err
	}
	return l, nil
}

// Clone returns a deep copy of the log — a stable snapshot of a log
// that is still being recorded into (the checkpoint path).
func (l *Log) Clone() *Log {
	c := &Log{
		Clock: append([]int64(nil), l.Clock...),
		Rand:  append([]uint64(nil), l.Rand...),
	}
	for _, chunk := range l.Input {
		c.Input = append(c.Input, append([]byte(nil), chunk...))
	}
	return c
}

// Record wraps cfg's devices so that every nondeterministic input is
// captured into the returned Log as the machine consumes it. Call before
// kernel.New.
func Record(cfg *kernel.Config) *Log {
	l := &Log{}
	var mu sync.Mutex

	clock := cfg.Clock
	if clock == nil {
		clock = kernel.LogicalClock()
	}
	cfg.Clock = func() int64 {
		v := clock()
		mu.Lock()
		l.Clock = append(l.Clock, v)
		mu.Unlock()
		return v
	}

	rnd := cfg.Rand
	if rnd == nil {
		rnd = kernel.SeededRand(1)
	}
	cfg.Rand = func() uint64 {
		v := rnd()
		mu.Lock()
		l.Rand = append(l.Rand, v)
		mu.Unlock()
		return v
	}
	return l
}

// RecordInput wraps a console input reader so consumed chunks land in the
// log. Use with kernel.NewConsole.
func (l *Log) RecordInput(in io.Reader) io.Reader {
	return &recordingReader{log: l, in: in}
}

type recordingReader struct {
	log *Log
	in  io.Reader
}

func (r *recordingReader) Read(p []byte) (int, error) {
	if r.in == nil {
		return 0, io.EOF
	}
	n, err := r.in.Read(p)
	if n > 0 {
		chunk := append([]byte(nil), p[:n]...)
		r.log.Input = append(r.log.Input, chunk)
	}
	return n, err
}

// Splice turns the log of a machine that has just restored a checkpoint
// into the log the uninterrupted run would have recorded. The restore
// re-read every device up to the image's cursors from the live sources
// (kernel.Machine.Restore), and l recorded those readings; prefix is the
// log the run recorded before the checkpoint. Clock and entropy readings
// are overwritten one for one. Console input becomes the prefix's
// chunks, cut where the restore's reading stopped: a log recorded by a
// console that read ahead of its program carries bytes past the cursor.
// Where prefix is shorter than what the restore read, the restore's own
// readings stand past its end. Call it before the machine runs on.
func (l *Log) Splice(prefix *Log) {
	copy(l.Clock, prefix.Clock)
	copy(l.Rand, prefix.Rand)
	read := 0
	for _, c := range l.Input {
		read += len(c)
	}
	var in [][]byte
	off := 0 // prefix bytes kept
	for _, c := range prefix.Input {
		if off == read {
			break
		}
		c = c[:min(len(c), read-off)]
		in = append(in, bytes.Clone(c))
		off += len(c)
	}
	for _, c := range l.Input { // the restore's bytes past the prefix
		if off >= len(c) {
			off -= len(c)
			continue
		}
		in = append(in, c[off:])
		off = 0
	}
	l.Input = in
}

// Replay configures cfg's devices to reproduce the logged inputs: the
// machine sees exactly the values of the recorded run.
func Replay(cfg *kernel.Config, l *Log) {
	cfg.Clock = replayer(l.Clock)
	cfg.Rand = replayer(l.Rand)
}

// replayer hands out vals in order, then repeats the last one; an empty
// log reads as zeros.
func replayer[T int64 | uint64](vals []T) func() T {
	var mu sync.Mutex
	i := 0
	return func() T {
		mu.Lock()
		defer mu.Unlock()
		if len(vals) == 0 {
			return 0
		}
		v := vals[i]
		if i < len(vals)-1 {
			i++
		}
		return v
	}
}

// ReplayInput returns a reader that delivers the recorded console input
// with the recorded chunk boundaries.
func (l *Log) ReplayInput() io.Reader {
	return &chunkReader{chunks: l.Input}
}

type chunkReader struct {
	chunks [][]byte
	buf    bytes.Buffer
	idx    int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	for c.buf.Len() == 0 {
		if c.idx >= len(c.chunks) {
			return 0, io.EOF
		}
		c.buf.Write(c.chunks[c.idx])
		c.idx++
	}
	return c.buf.Read(p)
}

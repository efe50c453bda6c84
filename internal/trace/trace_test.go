package trace

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/kernel"
)

// noisyProg consumes clock, entropy and console input and produces output
// derived from them.
func noisyProg(env *kernel.Env) {
	var out bytes.Buffer
	for i := 0; i < 3; i++ {
		t := env.ClockNow()
		r := env.RandUint64()
		out.WriteByte(byte('a' + (t+int64(r))%26))
	}
	var in [64]byte
	n := env.ConsoleRead(in[:])
	out.Write(in[:n])
	env.ConsoleWrite(out.Bytes())
	env.SetRet(uint64(out.Len()))
}

func TestRecordThenReplayIdenticalOutput(t *testing.T) {
	// Record a run with "wall-clock-ish" nondeterministic inputs.
	cfg := kernel.Config{
		Clock: func() int64 { return time.Now().UnixNano() },
		Rand:  kernel.SeededRand(uint64(time.Now().UnixNano())),
	}
	log := Record(&cfg)
	var out1 bytes.Buffer
	cfg.Console = kernel.NewConsole(log.RecordInput(strings.NewReader("stdin!")), &out1)
	kernel.New(cfg).Run(noisyProg, 0)

	// Serialize and restore the log, as a replay tool would.
	data, err := log.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}

	// Replay: devices now synthesize the recorded inputs.
	var cfg2 kernel.Config
	Replay(&cfg2, restored)
	var out2 bytes.Buffer
	cfg2.Console = kernel.NewConsole(restored.ReplayInput(), &out2)
	kernel.New(cfg2).Run(noisyProg, 0)

	if out1.String() != out2.String() {
		t.Errorf("replay diverged: %q vs %q", out1.String(), out2.String())
	}
	if len(restored.Clock) != 3 || len(restored.Rand) != 3 {
		t.Errorf("log sizes: clock %d rand %d, want 3 each", len(restored.Clock), len(restored.Rand))
	}
}

func TestReplayExhaustionRepeatsLast(t *testing.T) {
	l := &Log{Clock: []int64{5}, Rand: []uint64{9}}
	var cfg kernel.Config
	Replay(&cfg, l)
	if cfg.Clock() != 5 || cfg.Clock() != 5 {
		t.Error("clock replay did not repeat last value")
	}
	if cfg.Rand() != 9 || cfg.Rand() != 9 {
		t.Error("rand replay did not repeat last value")
	}
}

func TestEmptyLogReplay(t *testing.T) {
	l := &Log{}
	var cfg kernel.Config
	Replay(&cfg, l)
	if cfg.Clock() != 0 || cfg.Rand() != 0 {
		t.Error("empty log replay should produce zeros")
	}
	var b [8]byte
	r := l.ReplayInput()
	if n, _ := r.Read(b[:]); n != 0 {
		t.Error("empty input log produced data")
	}
}

func TestChunkBoundariesPreserved(t *testing.T) {
	l := &Log{Input: [][]byte{[]byte("ab"), []byte("cdef")}}
	r := l.ReplayInput()
	var b [64]byte
	n1, _ := r.Read(b[:])
	if string(b[:n1]) != "ab" {
		t.Errorf("first chunk = %q", b[:n1])
	}
	n2, _ := r.Read(b[:])
	if string(b[:n2]) != "cdef" {
		t.Errorf("second chunk = %q", b[:n2])
	}
}

// pieceReader hands out at most n bytes per Read.
type pieceReader struct {
	r io.Reader
	n int
}

func (p pieceReader) Read(b []byte) (int, error) {
	if len(b) > p.n {
		b = b[:p.n]
	}
	return p.r.Read(b)
}

// A console read is one read of the host source: the log holds one chunk
// per read that delivered bytes, equal to what the program received.
func TestConsoleRecordsOneChunkPerRead(t *testing.T) {
	text := strings.Repeat("the quick brown fox ", 20)
	var cfg kernel.Config
	log := Record(&cfg)
	cfg.Console = kernel.NewConsole(log.RecordInput(pieceReader{strings.NewReader(text), 7}), nil)
	var got [][]byte
	kernel.New(cfg).Run(func(env *kernel.Env) {
		for i := 0; ; i++ {
			b := make([]byte, []int{3, 64, 5, 7, 1}[i%5])
			n := env.ConsoleRead(b)
			if n == 0 {
				return
			}
			if n > 7 {
				t.Errorf("read %d returned %d bytes from a source that hands out 7", i, n)
			}
			got = append(got, b[:n])
		}
	}, 0)
	if !reflect.DeepEqual(log.Input, got) {
		t.Fatalf("recorded %q, program received %q", log.Input, got)
	}
	if all := bytes.Join(got, nil); string(all) != text {
		t.Fatalf("program received %q, want %q", all, text)
	}
}

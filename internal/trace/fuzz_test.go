package trace

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// FuzzTraceUnmarshal throws arbitrary bytes at the trace log's decoder,
// whose input a session image carries and a replay reads back. It never
// panics; a log it accepts marshals to bytes that decode to the same log
// and marshal to the same bytes again; and what it allocates is bounded by
// the input's length, whatever lengths and nesting the input claims.
func FuzzTraceUnmarshal(f *testing.F) {
	full := &Log{
		Clock: []int64{0, 1, -7, math.MaxInt64, math.MinInt64},
		Rand:  []uint64{0, math.MaxUint64, 0x5eed},
		Input: [][]byte{[]byte("ls\n"), {}, nil, bytes.Repeat([]byte{0xff}, 40)},
	}
	enc, err := full.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	for _, s := range []string{
		`{}`, `null`, `[]`, `{"clock":null,"rand":[],"input":[""]}`,
		`{"Clock":[1],"CLOCK":[2]}`,        // keys match case-insensitively; the last wins
		`{"input":["aGk=\n"]}`,             // base64 that skips a newline
		`{"rand":[-1]}`, `{"clock":[1.5]}`, // out of the field's range
		`{"other":` + strings.Repeat("[", 2000) + strings.Repeat("]", 2000) + `}`,
		`{"input":[` + strings.Repeat(`"",`, 500) + `""]}`,
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l, err := Unmarshal(data)
		runtime.ReadMemStats(&after)
		// The densest inputs — an empty byte string or a one-digit number
		// per two or three bytes, or a nesting level per byte — cost a
		// slice header, a word or a parser frame each, and the slices grow
		// by doubling; the slack is for whatever else the process
		// allocated meanwhile (TotalAlloc is process-wide).
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(64*len(data))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			if l != nil {
				t.Fatalf("a failed decode returned a log: %v", err)
			}
			return
		}
		enc, err := l.Marshal()
		if err != nil {
			t.Fatalf("a decoded log does not marshal: %v", err)
		}
		back, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("a marshalled log does not decode: %v", err)
		}
		if !reflect.DeepEqual(back, l) {
			t.Fatalf("log %+v round-trips to %+v", l, back)
		}
		if again, _ := back.Marshal(); !bytes.Equal(again, enc) {
			t.Fatalf("log marshals to %q, then to %q", enc, again)
		}
	})
}

// FuzzLogSplice splices a decoded prefix, as a session image carries it,
// over a decoded log of what a restore re-read. It never panics; the
// clock and entropy logs keep their lengths and the console input its
// byte count; every reading the prefix covers is the prefix's, a chunk
// cut only where the restore's reading stopped; and past the prefix's
// end the restore's own bytes stand.
func FuzzLogSplice(f *testing.F) {
	seed := func(prefix, rec *Log) {
		p, _ := prefix.Marshal()
		r, _ := rec.Marshal()
		f.Add(p, r)
	}
	in := []byte("0123456789abcdefghijklmnopqrstuvwxyz")
	rec := &Log{Clock: []int64{1, 2, 3}, Rand: []uint64{7, 8}, Input: [][]byte{in[:16], in[16:25]}}
	// A console that read ahead: the last chunk runs past the cursor.
	seed(&Log{Clock: []int64{10, 20, 30}, Rand: []uint64{70, 80}, Input: [][]byte{in[:10], in[10:]}}, rec)
	// A prefix shorter than the cursors, with an empty chunk.
	seed(&Log{Clock: []int64{10}, Input: [][]byte{{}, in[:4]}}, rec)
	// A prefix longer than the cursors.
	seed(&Log{Clock: []int64{10, 20, 30, 40}, Rand: []uint64{70, 80, 90}, Input: [][]byte{in[:25], in[25:]}}, rec)
	seed(&Log{}, &Log{})
	f.Add([]byte(`{"input":[""]}`), []byte(`{"input":["YWJj"]}`))

	f.Fuzz(func(t *testing.T, prefixData, recData []byte) {
		prefix, err := Unmarshal(prefixData)
		if err != nil {
			return
		}
		l, err := Unmarshal(recData)
		if err != nil {
			return
		}
		restored := l.Clone()
		l.Splice(prefix)

		if len(l.Clock) != len(restored.Clock) || len(l.Rand) != len(restored.Rand) {
			t.Fatalf("spliced %d clock, %d rand readings over %d, %d", len(l.Clock), len(l.Rand), len(restored.Clock), len(restored.Rand))
		}
		for i := range l.Clock {
			if want := pick(prefix.Clock, restored.Clock, i); l.Clock[i] != want {
				t.Fatalf("clock reading %d is %d, want %d", i, l.Clock[i], want)
			}
		}
		for i := range l.Rand {
			if want := pick(prefix.Rand, restored.Rand, i); l.Rand[i] != want {
				t.Fatalf("rand reading %d is %d, want %d", i, l.Rand[i], want)
			}
		}

		read := bytes.Join(restored.Input, nil)
		covered := bytes.Join(prefix.Input, nil)
		covered = covered[:min(len(covered), len(read))]
		if got, want := bytes.Join(l.Input, nil), append(bytes.Clone(covered), read[len(covered):]...); !bytes.Equal(got, want) {
			t.Fatalf("spliced input %q, want %q", got, want)
		}
		off := 0
		for i, c := range l.Input {
			if off == len(covered) {
				break
			}
			if p := prefix.Input[i]; !bytes.HasPrefix(p, c) || len(c) < len(p) && off+len(c) != len(read) {
				t.Fatalf("spliced chunk %d is %q, prefix chunk %q", i, c, p)
			}
			off += len(c)
		}
	})
}

// pick is the prefix's reading i where it has one, else the restore's.
func pick[T int64 | uint64](prefix, restored []T, i int) T {
	if i < len(prefix) {
		return prefix[i]
	}
	return restored[i]
}

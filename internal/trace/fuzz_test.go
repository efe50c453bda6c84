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

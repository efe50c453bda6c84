package detmake

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// goldenMessages rebuilds, byte for byte, the two messages every task of
// the golden build exchanges with the root: the input message stage
// writes and the result message the task's epilogue leaves. Each comes
// with the outputs its task declares.
func goldenMessages(t testing.TB) (inputs, results [][]byte, tasks []*Task) {
	cfg, _ := goldenConfig(t)
	res := buildOrDie(t, cfg)
	bytesOf := func(p string) []byte {
		if b, ok := cfg.Sources[p]; ok {
			return b
		}
		return res.Outputs[p]
	}
	list := func(paths []string) []taskFile {
		files := make([]taskFile, len(paths))
		for i, p := range paths {
			files[i] = taskFile{p, bytesOf(p)}
		}
		return files
	}
	for _, task := range cfg.Graph.Tasks() {
		ins := append([]string{}, task.Inputs...)
		sort.Strings(ins)
		inputs = append(inputs, encodeMessage(outcomeOK, list(ins)))
		results = append(results, encodeMessage(outcomeOK, list(task.Outputs)))
		tasks = append(tasks, task)
	}
	return inputs, results, tasks
}

// FuzzTaskMessage throws arbitrary bytes at the one decoder of what
// crosses a task's space boundary, read both ways: as a word and a file
// list (all a task's prologue asks of it) and as the result message of a
// task declaring the newline-separated outputs (what collect parses, from
// an untrusted child). Seeded with every message the golden build sends
// and their truncations. Either reading round-trips to the same bytes or
// fails — the result typed: *TaskError, or the failure the message
// reports — and what it allocates is bounded by the message's length
// (which collect bounds by DefaultTaskFSSize before reading it), whatever
// counts and lengths it claims.
func FuzzTaskMessage(f *testing.F) {
	inputs, results, tasks := goldenMessages(f)
	for i, task := range tasks {
		outs := strings.Join(task.Outputs, "\n")
		for _, msg := range [][]byte{inputs[i], results[i]} {
			f.Add(msg, outs)
			f.Add(msg[:len(msg)/2], outs)
		}
	}
	f.Add(binary.LittleEndian.AppendUint32(make([]byte, 4), 0x7fffffff), "out") // a count claiming every byte left
	f.Add(encodeMessage(outcomeMissing, []taskFile{{Path: "out"}}), "out")      // a reported failure
	// A path of bytes %q escapes four for one, on either side of a
	// mismatch: quoted whole, the declared one alone cost 113 KB.
	escaped := strings.Repeat("\x01", 4998)
	f.Add(encodeMessage(outcomeOK, []taskFile{{Path: "x", Body: make([]byte, 70)}}), escaped)
	f.Add(encodeMessage(outcomeOK, []taskFile{{Path: escaped}}), "x")

	f.Fuzz(func(t *testing.T, msg []byte, outs string) {
		task := &Task{ID: "t", Outputs: strings.Split(outs, "\n")}
		seen := make(map[string]bool)
		for _, p := range task.Outputs {
			if seen[p] {
				t.Skip("NewGraph rejects a task that declares one output twice")
			}
			seen[p] = true
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		word, files, listErr := decodeMessage(msg)
		out, resErr := decodeResult(task, msg)
		runtime.ReadMemStats(&after)

		if listErr == nil {
			if enc := encodeMessage(word, files); !bytes.Equal(enc, msg) {
				t.Fatalf("decoded message encodes to %x, was %x", enc, msg)
			}
		}
		if resErr == nil {
			files := make([]taskFile, len(task.Outputs))
			for i, p := range task.Outputs {
				files[i] = taskFile{p, out[p]}
			}
			if enc := encodeMessage(outcomeOK, files); !bytes.Equal(enc, msg) {
				t.Fatalf("decoded result encodes to %x, was %x", enc, msg)
			}
		} else if !errors.As(resErr, new(*TaskError)) && !errors.As(resErr, new(*UndeclaredInputError)) &&
			!errors.As(resErr, new(*MissingOutputError)) {
			t.Fatalf("err = %T %v, want a typed task failure", resErr, resErr)
		}
		// A pair is at least its two length prefixes, so a list is sized
		// at one 40-byte taskFile per 8 message bytes at most, twice over
		// for the two readings, plus the paths; bodies alias the message.
		// An error may name a declared path, which is the root's own, or
		// quote the head of one; the slack is for the rest of the errors
		// and whatever else the process allocated meanwhile (TotalAlloc is
		// process-wide).
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(16*len(msg)+8*len(outs))+64<<10 {
			t.Fatalf("decoding %d bytes against %d of declared paths allocated %d", len(msg), len(outs), grew)
		}
	})
}

// BenchmarkTaskMessage times marshalling what crosses a task's space
// boundary: the largest list a benchmark build sends (the 24 objects, 65
// bytes each, `wide`'s link task takes) and the commonest (one file).
// `make bench-smoke` runs one iteration.
func BenchmarkTaskMessage(b *testing.B) {
	link := make([]taskFile, 24)
	for i := range link {
		link[i] = taskFile{fmt.Sprintf("out/f%02d.o", i), bytes.Repeat([]byte{'a' + byte(i)}, 65)}
	}
	for _, list := range []struct {
		name  string
		files []taskFile
	}{{"link24", link}, {"one", link[:1]}} {
		msg := encodeMessage(outcomeOK, list.files)
		b.Run("encode/"+list.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(msg)))
			for i := 0; i < b.N; i++ {
				if got := encodeMessage(outcomeOK, list.files); len(got) != len(msg) {
					b.Fatalf("encoded %d bytes, want %d", len(got), len(msg))
				}
			}
		})
		b.Run("decode/"+list.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(msg)))
			for i := 0; i < b.N; i++ {
				if _, files, err := decodeMessage(msg); err != nil || len(files) != len(list.files) {
					b.Fatalf("decoded %d files: %v", len(files), err)
				}
			}
		})
	}
}

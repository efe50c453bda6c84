package fs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/kernel"
)

// WriteFile, ReadFile and WriteFileAll walk their path once. Before, each
// was a composition of whole-path operations, and those compositions are
// kept here as the oracle: over random scripts, the single walk and the
// composition leave the same error, the same image bytes and the same
// bytes read after every operation, and the single walk is never charged
// more virtual time. Mutation-checked: a WriteFileAll that fails at a
// tombstoned parent instead of reviving it, or that walks into a live
// directory without re-creating it (leaving a conflicted parent
// flagged, where Mkdir clears it), fails on errors or image bytes alone.

// composedWriteFile is WriteFile as it was: four walks for a new file,
// three for an existing one.
func composedWriteFile(f *FS, path string, p []byte) error {
	if f.lookup(path) < 0 {
		if err := f.Create(path); err != nil {
			return err
		}
	}
	if err := f.Truncate(path, 0); err != nil {
		return err
	}
	return f.WriteAt(path, 0, p)
}

// composedReadFile is ReadFile as it was: Stat, then ReadAt.
func composedReadFile(f *FS, path string) ([]byte, error) {
	info, err := f.Stat(path)
	if err != nil {
		return nil, err
	}
	if info.Dir {
		return nil, ErrIsDir
	}
	if info.Conflicted {
		return nil, ErrConflict
	}
	buf := make([]byte, info.Size)
	if _, err := f.ReadAt(path, 0, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// composedWriteFileAll is detmake's mkdirAll — a Mkdir per proper
// prefix, ErrExists ignored — and then WriteFile. mkdirAll split the path
// as given, so a leading slash made its first Mkdir("") fail ErrBadName;
// every fs entry point tolerates one, WriteFileAll included, so the
// oracle drops it first.
func composedWriteFileAll(f *FS, path string, p []byte) error {
	parts := strings.Split(strings.TrimPrefix(path, "/"), "/")
	for i := 1; i < len(parts); i++ {
		if err := f.Mkdir(strings.Join(parts[:i], "/")); err != nil && !errors.Is(err, ErrExists) {
			return err
		}
	}
	return composedWriteFile(f, path, p)
}

// walkImageSize is small enough that a few large writes run it out of
// space.
const walkImageSize = 96 << 10

// walkNames are the components scripts build paths from: short names
// that collide, the longest valid name, one a byte too long, and two
// splitPath refuses. The first eight are the valid ones.
var walkNames = []string{
	"a", "b", "c", "a", "b", "c", "a", "b",
	strings.Repeat("n", MaxNameLen-1), strings.Repeat("m", MaxNameLen),
	"", ".",
}

func walkPath(rng *rand.Rand) string {
	parts := make([]string, 1+rng.Intn(4))
	for i := range parts {
		if rng.Intn(3) > 0 {
			parts[i] = walkNames[rng.Intn(8)]
		} else {
			parts[i] = walkNames[rng.Intn(len(walkNames))]
		}
	}
	p := strings.Join(parts, "/")
	if rng.Intn(8) == 0 {
		p = "/" + p
	}
	return p
}

func walkData(rng *rand.Rand) []byte {
	n := rng.Intn(300)
	if rng.Intn(5) == 0 {
		n = rng.Intn(48 << 10)
	}
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// walkReached counts the states and errors the scripts reached: the
// comparison means something only where they reach.
type walkReached map[string]int

// notePath records what the parents of path are in img, through a
// handle of its own so img's index cache is left as it was.
func (r walkReached) notePath(img *FS, path string) {
	parts, err := splitPath(path)
	if err != nil {
		return
	}
	f := AttachRestored(img.env, img.base)
	for i := 1; i < len(parts); i++ {
		ino := f.lookupAny(strings.Join(parts[:i], "/"))
		if ino < 0 {
			continue
		}
		switch fl := f.iGet(ino, iFlags); {
		case fl&flagTomb != 0:
			r["tombstoned parent"]++
		case fl&flagConflict != 0:
			r["conflicted parent"]++
		case fl&flagDir == 0:
			r["file as parent"]++
		}
	}
}

func TestSingleWalkMatchesComposition(t *testing.T) {
	reached := walkReached{}
	for seed := int64(1); seed <= 40; seed++ {
		fresh, protect := seed%2 == 0, seed%4 < 2
		var fail string
		res := kernel.New(kernel.Config{}).Run(func(env *kernel.Env) {
			fail = walkScript(env, rand.New(rand.NewSource(seed)), fresh, protect, reached)
		}, 0)
		if res.Status != kernel.StatusHalted {
			t.Fatalf("seed %d: %v: %v", seed, res.Status, res.Err)
		}
		if fail != "" {
			t.Fatalf("seed %d (fresh handles %v, protect %v): %s", seed, fresh, protect, fail)
		}
	}
	want := []string{"tombstoned parent", "conflicted parent", "file as parent",
		"WriteFile: " + ErrNotFound.Error(), "ReadFile: " + ErrConflict.Error(), "ReadFile: " + ErrIsDir.Error()}
	for _, err := range []error{ErrNoSpace, ErrNotDir, ErrIsDir, ErrConflict, ErrBadName} {
		want = append(want, "WriteFileAll: "+err.Error())
	}
	for _, w := range want {
		if reached[w] == 0 {
			t.Errorf("no script reached %q: %v", w, reached)
		}
	}
}

// walkScript runs 200 random operations against two images in env, one
// through the single walks and one through the compositions, and
// describes the first difference. The images are operated on through
// one long-lived handle each, or, if fresh, through a fresh
// AttachRestored handle per operation.
func walkScript(env *kernel.Env, rng *rand.Rand, fresh, protect bool, reached walkReached) string {
	single := Format(env, testBase, walkImageSize)
	composed := Format(env, scratch, walkImageSize)
	both := []*FS{single, composed}
	for _, f := range both {
		f.SetProtect(protect)
	}
	imgS, imgC := make([]byte, walkImageSize), make([]byte, walkImageSize)
	for step := 0; step < 200; step++ {
		if fresh {
			single, composed = AttachRestored(env, testBase), AttachRestored(env, scratch)
			both = []*FS{single, composed}
			for _, f := range both {
				f.protect = protect
			}
		}
		path := walkPath(rng)
		var op string
		var errS, errC error
		var readS, readC []byte
		var vt [2]int64
		switch k := rng.Intn(12); {
		case k < 3:
			op, vt = "WriteFile", walkCharge(env, walkData(rng), both,
				func(f *FS, p []byte) { errS = f.WriteFile(path, p) },
				func(f *FS, p []byte) { errC = composedWriteFile(f, path, p) })
		case k < 6:
			reached.notePath(composed, path)
			op, vt = "WriteFileAll", walkCharge(env, walkData(rng), both,
				func(f *FS, p []byte) { errS = f.WriteFileAll(path, p) },
				func(f *FS, p []byte) { errC = composedWriteFileAll(f, path, p) })
		case k < 8:
			op, vt = "ReadFile", walkCharge(env, nil, both,
				func(f *FS, _ []byte) { readS, errS = f.ReadFile(path) },
				func(f *FS, _ []byte) { readC, errC = composedReadFile(f, path) })
		case k < 9:
			op, errS, errC = "Mkdir", single.Mkdir(path), composed.Mkdir(path)
		case k < 10:
			op, errS, errC = "Unlink", single.Unlink(path), composed.Unlink(path)
		default:
			// Reconciliation's divergence branch: flag the entry — live or
			// a tombstone — and bump it.
			op = "conflict"
			for _, f := range both {
				relock := f.unlock()
				if ino := f.lookupAny(path); ino >= 0 {
					f.iPut(ino, iFlags, f.iGet(ino, iFlags)|flagConflict)
					f.bump(ino)
				}
				relock()
			}
		}
		if errS != nil {
			reached[op+": "+errS.Error()]++
		}
		env.Read(testBase, imgS)
		env.Read(scratch, imgC)
		switch {
		case !errors.Is(errS, errC) || !errors.Is(errC, errS):
			return fmt.Sprintf("step %d: %s(%q) = %v, composition %v", step, op, path, errS, errC)
		case !bytes.Equal(readS, readC):
			return fmt.Sprintf("step %d: %s(%q) read %d bytes, composition %d", step, op, path, len(readS), len(readC))
		case !bytes.Equal(imgS, imgC):
			return fmt.Sprintf("step %d: %s(%q) left image bytes the composition did not", step, op, path)
		case single.Checksum() != composed.Checksum():
			return fmt.Sprintf("step %d: %s(%q): checksums differ", step, op, path)
		case vt[0] > vt[1]:
			return fmt.Sprintf("step %d: %s(%q) charged %d, composition %d", step, op, path, vt[0], vt[1])
		}
	}
	return ""
}

// walkCharge runs one operation on each image with the same data and
// returns the virtual time each was charged.
func walkCharge(env *kernel.Env, p []byte, both []*FS, single, composed func(*FS, []byte)) [2]int64 {
	v0 := env.VT()
	single(both[0], p)
	v1 := env.VT()
	composed(both[1], p)
	return [2]int64{v1 - v0, env.VT() - v1}
}

// TestWalkChargesPinned pins what one operation is charged on a fresh
// image with a warm index, for a 256-byte file at depth 1 and at depth 4,
// through the single walk and through the composition it replaced
// (docs/determinism-rules.md quotes these).
func TestWalkChargesPinned(t *testing.T) {
	want := map[string][2]int64{
		"WriteFileAll new depth 1":    {82, 88},
		"WriteFileAll new depth 4":    {156, 207},
		"WriteFile new depth 1":       {83, 89},
		"WriteFile new depth 4":       {97, 130},
		"WriteFile overwrite depth 1": {74, 79},
		"WriteFile overwrite depth 4": {83, 106},
		"ReadFile depth 1":            {38, 57},
		"ReadFile depth 4":            {47, 114},
	}
	got := map[string][2]int64{}
	indexEnv(t, func(env *kernel.Env) {
		single := Format(env, testBase, walkImageSize)
		composed := Format(env, scratch, walkImageSize)
		single.lookup("warm")
		composed.lookup("warm")
		data := make([]byte, 256)
		for _, dir := range []string{"", "d/d/d/"} {
			path, sibling := dir+"f", dir+"g"
			for _, op := range []struct {
				name             string
				single, composed func(f *FS)
			}{
				{"WriteFileAll new",
					func(f *FS) { must(f.WriteFileAll(path, data)) },
					func(f *FS) { must(composedWriteFileAll(f, path, data)) }},
				{"WriteFile new",
					func(f *FS) { must(f.WriteFile(sibling, data)) },
					func(f *FS) { must(composedWriteFile(f, sibling, data)) }},
				{"WriteFile overwrite",
					func(f *FS) { must(f.WriteFile(path, data)) },
					func(f *FS) { must(composedWriteFile(f, path, data)) }},
				{"ReadFile",
					func(f *FS) { _, err := f.ReadFile(path); must(err) },
					func(f *FS) { _, err := composedReadFile(f, path); must(err) }},
			} {
				name := fmt.Sprintf("%s depth %d", op.name, strings.Count(path, "/")+1)
				got[name] = [2]int64{
					charged(env, func() { op.single(single) })[1],
					charged(env, func() { op.composed(composed) })[1],
				}
			}
		}
	})
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s charged (single, composed) %v, want %v", name, got[name], w)
		}
	}
}

// BenchmarkWriteFile is the host cost of one WriteFile of a 256-byte
// file at depth 1 and at depth 4 — of a new name, and over an existing
// file — with the virtual time it is charged. New names run out: every
// hundred writes the image is formatted afresh, off the clock.
func BenchmarkWriteFile(b *testing.B) {
	data := make([]byte, 256)
	for _, dir := range []string{"", "d/d/d/"} {
		names := make([]string, 100)
		for i := range names {
			names[i] = fmt.Sprintf("%sf%03d", dir, i)
		}
		for _, overwrite := range []bool{false, true} {
			kind := "new"
			if overwrite {
				kind = "overwrite"
			}
			b.Run(fmt.Sprintf("%s/depth=%d", kind, strings.Count(dir, "/")+1), func(b *testing.B) {
				indexEnv(b, func(env *kernel.Env) {
					var f *FS
					fresh := func() {
						b.StopTimer()
						f = Format(env, testBase, 1<<20)
						must(f.WriteFileAll(names[0], data))
						b.StartTimer()
					}
					fresh()
					b.ReportAllocs()
					b.ResetTimer()
					var vt int64
					for i := 0; i < b.N; i++ {
						name := names[0]
						if !overwrite {
							if i%(len(names)-1) == 0 && i > 0 {
								fresh()
							}
							name = names[1+i%(len(names)-1)]
						}
						v := env.VT()
						must(f.WriteFile(name, data))
						vt += env.VT() - v
					}
					b.ReportMetric(float64(vt)/float64(b.N), "vt/op")
				})
			})
		}
	}
}

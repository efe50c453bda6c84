package fs

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/vm"
)

// imageBytes snapshots the whole image so tests can assert that a
// rejected operation changed nothing at all — not just the file it
// named.
func imageBytes(env *kernel.Env) []byte {
	buf := make([]byte, testSize)
	env.Read(testBase, buf)
	return buf
}

// TestBadOffsetsRejectedAndHarmless is the PR's regression table: every
// operation that used to convert a caller-supplied offset with uint32()
// must now reject negative and image-exceeding offsets with ErrBadOffset
// and leave the image byte-identical. On the pre-fix code these calls
// wrapped — WriteAt(-4096) landed in the previous file's extent,
// ReadAt(-4096) leaked it, and the ensureCap doubling loop spun forever
// once the wrapped end crossed 2³¹.
func TestBadOffsetsRejectedAndHarmless(t *testing.T) {
	withFS(t, func(env *kernel.Env, f *FS) {
		victim := bytes.Repeat([]byte{0xAB}, 256)
		if err := f.Create("victim"); err != nil {
			panic(err)
		}
		if err := f.WriteAt("victim", 0, victim); err != nil {
			panic(err)
		}
		if err := f.Create("target"); err != nil {
			panic(err)
		}
		if err := f.WriteAt("target", 0, []byte("safe")); err != nil {
			panic(err)
		}
		before := imageBytes(env)

		cases := []struct {
			name string
			op   func() error
		}{
			// victim's extent sits exactly one extent stride before
			// target's: the classic wrap target.
			{"writeat-neg-page", func() error { return f.WriteAt("target", -vm.PageSize, []byte("evil")) }},
			{"writeat-neg-1", func() error { return f.WriteAt("target", -1, []byte{1}) }},
			{"writeat-min-int", func() error { return f.WriteAt("target", math.MinInt, []byte{1}) }},
			{"writeat-past-image", func() error { return f.WriteAt("target", int(testSize), []byte{1}) }},
			{"writeat-end-overflow", func() error { return f.WriteAt("target", math.MaxInt, []byte{1}) }},
			{"truncate-neg", func() error { return f.Truncate("target", -1) }},
			{"truncate-min-int", func() error { return f.Truncate("target", math.MinInt) }},
			{"truncate-past-image", func() error { return f.Truncate("target", int(testSize)+1) }},
			{"readat-neg-1", func() error { _, err := f.ReadAt("target", -1, make([]byte, 8)); return err }},
			{"readat-neg-page", func() error {
				_, err := f.ReadAt("target", -vm.PageSize, make([]byte, 64))
				return err
			}},
		}
		for _, tc := range cases {
			if err := tc.op(); !errors.Is(err, ErrBadOffset) {
				t.Errorf("%s: err = %v, want ErrBadOffset", tc.name, err)
			}
			if !bytes.Equal(imageBytes(env), before) {
				t.Fatalf("%s: rejected operation modified the image", tc.name)
			}
		}

		// A wrapped ReadAt must not leak the victim's bytes either: the
		// pre-fix code returned 0xAB..., the fixed code refuses.
		leak := make([]byte, 16)
		if n, err := f.ReadAt("target", -vm.PageSize, leak); err == nil || n != 0 {
			t.Errorf("negative ReadAt returned %d bytes, err %v", n, err)
		}
		for _, b := range leak {
			if b == 0xAB {
				t.Fatal("negative ReadAt leaked the victim's bytes")
			}
		}
	})
}

// TestHugeGrowthFailsWithNoSpace: sizes that fit the offset rules but
// not the image must fail fast with ErrNoSpace — the doubling loop may
// not wrap, spin, or allocate past the extent area.
func TestHugeGrowthFailsWithNoSpace(t *testing.T) {
	withFS(t, func(env *kernel.Env, f *FS) {
		if err := f.Create("big"); err != nil {
			panic(err)
		}
		// In range for the image, but the extent area can't hold it: the
		// power-of-two growth is capped at the image size and the bump
		// allocator refuses.
		if err := f.Truncate("big", int(testSize)-vm.PageSize); !errors.Is(err, ErrNoSpace) {
			t.Errorf("Truncate near image size: err = %v, want ErrNoSpace", err)
		}
		// Appending to a file whose end would cross the image boundary.
		if err := f.WriteAt("big", int(testSize)-4, make([]byte, 64)); !errors.Is(err, ErrBadOffset) {
			t.Errorf("WriteAt crossing image end: err = %v, want ErrBadOffset", err)
		}
		// The file must still be usable after the failures.
		if err := f.WriteAt("big", 0, []byte("ok")); err != nil {
			t.Errorf("write after failed growth: %v", err)
		}
		got, err := f.ReadFile("big")
		if err != nil || string(got) != "ok" {
			t.Errorf("ReadFile = %q, %v", got, err)
		}
	})
}

// TestAppendAtomicWithProtection: with SetProtect enabled, Append must
// perform its size lookup and write inside one unlock window and stay
// correct across many appends interleaved with truncates.
func TestAppendAtomicWithProtection(t *testing.T) {
	withFS(t, func(env *kernel.Env, f *FS) {
		f.SetProtect(true)
		defer f.SetProtect(false)
		if err := f.CreateAppendOnly("log"); err != nil {
			panic(err)
		}
		var want []byte
		for i := 0; i < 20; i++ {
			chunk := bytes.Repeat([]byte{byte('a' + i)}, i+1)
			if err := f.Append("log", chunk); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
			want = append(want, chunk...)
			if i == 9 {
				if err := f.Truncate("log", len(want)-5); err != nil {
					t.Fatalf("truncate: %v", err)
				}
				want = want[:len(want)-5]
			}
		}
		got, err := f.ReadFile("log")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("log = %q, want %q", got, want)
		}
		// The image must be read-only again after every operation: a wild
		// write from a child inheriting this memory has to fault.
		if err := env.Put(1, kernel.PutOpts{
			Regs: &kernel.Regs{Entry: func(c *kernel.Env) {
				c.WriteU32(testBase+vm.Addr(dataStart), 0xDEAD)
			}},
			CopyAll: true,
			Start:   true,
		}); err != nil {
			t.Fatal(err)
		}
		info, err := env.Get(1, kernel.GetOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if info.Status != kernel.StatusFault {
			t.Fatalf("wild write after Append did not fault: image left writable (%v)", info.Status)
		}
	})
}

// TestNoOperationEscapesItsExtent is the property test: a deterministic
// random mix of valid and invalid operations over several files, checked
// against an in-memory model after every step. Any operation that wrote
// or read outside its own file's extent — the corruption mode of the
// wrapped offsets — diverges from the model immediately.
func TestNoOperationEscapesItsExtent(t *testing.T) {
	withFS(t, func(env *kernel.Env, f *FS) {
		rng := rand.New(rand.NewSource(0x0FF5E7))
		names := []string{"a", "b", "c", "d"}
		model := map[string][]byte{}
		for _, n := range names {
			if err := f.Create(n); err != nil {
				panic(err)
			}
			model[n] = nil
		}
		const maxLen = 9000
		for step := 0; step < 1500; step++ {
			name := names[rng.Intn(len(names))]
			switch rng.Intn(5) {
			case 0: // valid write at random offset
				off := rng.Intn(maxLen)
				p := make([]byte, rng.Intn(200))
				for i := range p {
					p[i] = byte(rng.Intn(256))
				}
				if err := f.WriteAt(name, off, p); err != nil {
					t.Fatalf("step %d: WriteAt(%s, %d, %d bytes): %v", step, name, off, len(p), err)
				}
				cur := model[name]
				if need := off + len(p); need > len(cur) {
					grown := make([]byte, need)
					copy(grown, cur)
					cur = grown
				}
				copy(cur[off:], p)
				model[name] = cur
			case 1: // valid append
				p := bytes.Repeat([]byte{byte(step)}, rng.Intn(64))
				if err := f.Append(name, p); err != nil {
					t.Fatalf("step %d: Append(%s): %v", step, name, err)
				}
				model[name] = append(model[name], p...)
			case 2: // valid truncate
				n := rng.Intn(maxLen)
				if err := f.Truncate(name, n); err != nil {
					t.Fatalf("step %d: Truncate(%s, %d): %v", step, name, n, err)
				}
				cur := model[name]
				if n <= len(cur) {
					model[name] = cur[:n]
				} else {
					grown := make([]byte, n)
					copy(grown, cur)
					model[name] = grown
				}
			case 3: // hostile offset: must be rejected, must change nothing
				bad := [...]int{-1, -vm.PageSize, -rng.Intn(1 << 30), math.MinInt,
					int(testSize) + rng.Intn(1<<20), math.MaxInt - rng.Intn(1<<10)}
				off := bad[rng.Intn(len(bad))]
				var err error
				switch rng.Intn(3) {
				case 0:
					err = f.WriteAt(name, off, []byte{0xEE})
				case 1:
					_, err = f.ReadAt(name, off, make([]byte, 32))
				case 2:
					err = f.Truncate(name, off)
				}
				if !errors.Is(err, ErrBadOffset) {
					t.Fatalf("step %d: hostile offset %d on %s: err = %v, want ErrBadOffset",
						step, off, name, err)
				}
			case 4: // valid read of a random slice
				off := rng.Intn(maxLen)
				p := make([]byte, rng.Intn(128))
				n, err := f.ReadAt(name, off, p)
				if err != nil {
					t.Fatalf("step %d: ReadAt(%s, %d): %v", step, name, off, err)
				}
				cur := model[name]
				wantN := 0
				if off < len(cur) {
					wantN = min(len(p), len(cur)-off)
				}
				if n != wantN {
					t.Fatalf("step %d: ReadAt(%s, %d) = %d bytes, model has %d", step, name, off, n, wantN)
				}
				if n > 0 && !bytes.Equal(p[:n], cur[off:off+n]) {
					t.Fatalf("step %d: ReadAt(%s, %d) bytes diverge from model", step, name, off)
				}
			}
			// Cross-file invariant: every OTHER file still matches the
			// model exactly — nothing escaped its extent.
			if step%100 == 99 {
				for _, other := range names {
					got, err := f.ReadFile(other)
					if err != nil {
						t.Fatalf("step %d: ReadFile(%s): %v", step, other, err)
					}
					if !bytes.Equal(got, model[other]) {
						t.Fatalf("step %d: file %s diverged from model (len %d vs %d)",
							step, other, len(got), len(model[other]))
					}
				}
			}
		}
	})
}

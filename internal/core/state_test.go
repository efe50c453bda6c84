package core

import (
	"errors"
	"testing"

	"repro/internal/kernel"
	"repro/internal/vm"
)

// Attach must accept exactly the shared regions New can produce. An
// RTState comes out of a session image, i.e. off a disk or a socket, and
// every Start copies the region table by table, sharing whole tables
// with the kernel's table-sharing path; a crafted size once reached
// makeslice and killed the process.
func TestAttachRejectsRegionsNewCannotProduce(t *testing.T) {
	cases := []struct {
		name string
		base vm.Addr
		size uint64
		ok   bool
	}{
		{"default", SharedBase, DefaultSharedSize, true},
		{"one table", SharedBase, vm.TableSpan, true},
		{"to the top of the space", SharedBase, vm.SpaceSize - uint64(SharedBase), true},
		{"empty", SharedBase, 0, false},
		{"2^62 bytes", SharedBase, 1 << 62, false},
		{"page-aligned only", SharedBase + 0x1000, 0x3000, false},
		{"unaligned base", SharedBase + 0x1000, vm.TableSpan, false},
		{"unaligned size", SharedBase, vm.TableSpan + vm.PageSize, false},
		{"past 4 GiB", SharedBase, vm.SpaceSize, false},
		{"one table past 4 GiB", SharedBase, vm.SpaceSize - uint64(SharedBase) + vm.TableSpan, false},
	}
	res := kernel.New(kernel.Config{}).Run(func(env *kernel.Env) {
		for _, c := range cases {
			rt, err := Attach(env, RTState{Base: c.base, Size: c.size, Next: c.base}, nil)
			var se *StateError
			switch {
			case c.ok && err != nil:
				t.Errorf("%s: Attach(%#x+%#x) = %v, want success", c.name, c.base, c.size, err)
			case c.ok:
				if b, s := rt.SharedRange(); b != c.base || s != c.size {
					t.Errorf("%s: attached range %#x+%#x", c.name, b, s)
				}
			case !errors.As(err, &se) || se.Field != "region":
				t.Errorf("%s: Attach(%#x+%#x) = %v, want *StateError{region}", c.name, c.base, c.size, err)
			}
		}
	}, 0)
	if res.Status != kernel.StatusHalted {
		t.Fatalf("%v: %v", res.Status, res.Err)
	}
}

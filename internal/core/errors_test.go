package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/vm"
)

// TestErrorsRender formats every typed error the package returns. Tests
// elsewhere match them with errors.As and never print them; a caller
// does print them, and a message that drops the field the type exists
// to carry is a bug no errors.As check catches.
func TestErrorsRender(t *testing.T) {
	cause := errors.New("the cause")
	conflict := &vm.MergeConflictError{Addrs: []vm.Addr{0x1000}, Total: 9}
	for _, c := range []struct {
		err   error
		wants []string // what the message must name
		cause error    // what Unwrap must return, nil for a leaf
	}{
		{&BadNodeError{Node: 7, Nodes: 4}, []string{"node 7", "4 node"}, nil},
		{&ConflictError{ThreadID: 3, Node: -1, Cause: conflict}, []string{"thread 3", conflict.Error()}, conflict},
		{&ConflictError{ThreadID: -1, Node: 2, Cause: conflict}, []string{"node 2", conflict.Error()}, conflict},
		{&ThreadCrashError{ThreadID: 5, Status: kernel.StatusFault, Cause: cause}, []string{"thread 5", kernel.StatusFault.String(), "the cause"}, cause},
		{&StateError{Field: "region", Msg: "moved"}, []string{"region", "moved"}, nil},
	} {
		msg := c.err.Error()
		for _, w := range c.wants {
			if !strings.Contains(msg, w) {
				t.Errorf("%T renders as %q, which does not name %q", c.err, msg, w)
			}
		}
		if got := errors.Unwrap(c.err); got != c.cause {
			t.Errorf("%T unwraps to %v, want %v", c.err, got, c.cause)
		}
	}
}

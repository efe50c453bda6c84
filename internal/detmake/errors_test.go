package detmake

import (
	"errors"
	"strings"
	"testing"
)

// TestErrorsRender formats every typed error the package returns. Tests
// elsewhere match them with errors.As and never print them; a caller
// does print them, and a message that drops the field the type exists
// to carry is a bug no errors.As check catches.
func TestErrorsRender(t *testing.T) {
	cause := errors.New("the cause")
	for _, c := range []struct {
		err   error
		wants []string // what the message must name
		cause error    // what Unwrap must return, nil for a leaf
	}{
		{&UndeclaredInputError{Task: "cc", Path: "src/x.h"}, []string{"cc", "src/x.h", "undeclared"}, nil},
		{&MissingOutputError{Task: "cc", Path: "out/x.o"}, []string{"cc", "out/x.o"}, nil},
		{&OutputConflictError{Path: "out", Tasks: [2]string{"a", "b"}}, []string{"a and b", `"out"`}, nil},
		{&DuplicateOutputError{Path: "out/x", Tasks: [2]string{"a", "b"}}, []string{"a and b", "out/x"}, nil},
		{&MissingInputError{Task: "ld", Path: "lib.a"}, []string{"ld", "lib.a"}, nil},
		{&CycleError{Tasks: []string{"a", "b"}}, []string{"a, b"}, nil},
		{&TaskError{Task: "cc", Err: cause}, []string{"cc", "the cause"}, cause},
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

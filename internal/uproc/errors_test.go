package uproc

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/kernel"
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
		{&StateError{Msg: "2 uncollected children"}, []string{"checkpoint state", "2 uncollected children"}, nil},
		{&ExitError{PID: 4, Status: kernel.StatusFault, Cause: cause}, []string{"child 4", kernel.StatusFault.String(), "the cause"}, nil},
		{&QuotaError{PID: 4, Quota: 5000}, []string{"child 4", "5000"}, nil},
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

package kernel

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
	for _, c := range []struct {
		err   error
		wants []string // what the message must name
		cause error    // what Unwrap must return, nil for a leaf
	}{
		{&NotQuiescentError{Ref: 0x12, Status: StatusRet}, []string{"0x12", StatusRet.String()}, nil},
		{&BadImageError{Offset: 40, Msg: "short section"}, []string{"byte 40", "short section"}, nil},
		{&ImageVersionError{Version: 9, Max: 1}, []string{"version 9", "max 1"}, nil},
		{&ImageMismatchError{Field: "nodes", Image: "4", Machine: "2"}, []string{"nodes", "image has 4", "machine has 2"}, nil},
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

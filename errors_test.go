package repro

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
		{&ManifestError{Msg: "short node"}, []string{"manifest", "short node"}, nil},
		{&StateError{Op: "Step", State: StateClosed}, []string{"Step", "Closed"}, nil},
		{&StateError{Op: "Run", State: StateQuiescent, Msg: "bound"}, []string{"Run", "Quiescent", "bound"}, nil},
		{&ConfigError{Field: "SharedSize", Reason: "too large"}, []string{"SharedSize", "too large"}, nil},
		{&ProgramError{Msg: "no phases"}, []string{"program", "no phases"}, nil},
		{&ImageError{Offset: 17, Msg: "truncated"}, []string{"byte 17", "truncated"}, nil},
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
	for s, want := range map[SessionState]string{
		StateIdle: "Idle", StateRunning: "Running", StateQuiescent: "Quiescent",
		StateSuspended: "Suspended", StateClosed: "Closed", SessionState(9): "SessionState(9)",
	} {
		if got := s.String(); got != want {
			t.Errorf("SessionState(%d) renders as %q, want %q", uint8(s), got, want)
		}
	}
}

package castore

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestErrorsRender formats every typed error the package returns. Tests
// elsewhere match them with errors.As and never print them; a caller
// does print them, and a message that drops the field the type exists
// to carry is a bug no errors.As check catches.
func TestErrorsRender(t *testing.T) {
	key, other := KeyOf([]byte("stored")), KeyOf([]byte("found"))
	for _, c := range []struct {
		err   error
		wants []string // what the message must name
		cause error    // what Unwrap must return, nil for a leaf
	}{
		{&ChunkMissingError{Key: key}, []string{key.String(), "missing"}, nil},
		{&ChunkHashError{Key: key, Got: other}, []string{key.String(), other.String()}, nil},
		{&ChunkSizeError{Key: key, Size: MaxChunkSize + 1}, []string{key.String(), fmt.Sprint(MaxChunkSize + 1)}, nil},
		{&RefError{Name: "actions/ab", Msg: "torn"}, []string{"actions/ab", "torn"}, nil},
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

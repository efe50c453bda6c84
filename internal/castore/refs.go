package castore

// Refs: the one mutable thing a content-addressed store has. A ref is a
// name that maps to a key — a checkpoint chain's head (MANIFEST), a
// build's action index (actions/<action key>) — and the refs are what
// keeps chunks alive: Collect traces from every ref of the store it
// sweeps, so what survives a collection is a function of the store's
// contents, never of which tool ran the sweep.
//
// There is one of everything. One encoding: the key in hex and a
// newline, in a file named after the ref beside DirStore's fan-out; a
// map entry in MemStore. One write: writeFileAtomic, so a reader sees
// the old key or the new one. One policy for a value that is not a key:
// *RefError naming the ref — never a silently wrong key, and never
// mistaken for an absent ref, which is ok == false. One enumeration:
// the names in ascending order, the same from both backends.

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// RefError reports a ref that cannot name a key: its stored value is
// truncated or garbage, or the name is not one a store accepts.
type RefError struct{ Name, Msg string }

func (e *RefError) Error() string { return fmt.Sprintf("castore: bad ref %q: %s", e.Name, e.Msg) }

// checkRefName accepts slash-separated names whose components are
// non-empty and do not start with a dot (so no "..", and no clash with
// writeFileAtomic's temporaries) and whose first component is not two
// bytes long: those are the chunk fan-out's directories.
func checkRefName(name string) error {
	for i, c := range strings.Split(name, "/") {
		if c == "" || c[0] == '.' || i == 0 && len(c) == 2 {
			return &RefError{name, "invalid name"}
		}
	}
	return nil
}

// SetRef points name at key.
func (s *MemStore) SetRef(name string, key Key) error {
	err := checkRefName(name)
	if err == nil {
		s.mu.Lock()
		s.refs[name] = key
		s.mu.Unlock()
	}
	return err
}

// Ref returns the key name points at.
func (s *MemStore) Ref(name string) (Key, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key, ok := s.refs[name]
	return key, ok, nil
}

// Refs returns the name of every ref, ascending.
func (s *MemStore) Refs() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Sorted(maps.Keys(s.refs)), nil
}

// SetRef points name at key, atomically.
func (s *DirStore) SetRef(name string, key Key) error {
	if err := checkRefName(name); err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(s.dir, name), []byte(key.String()+"\n"))
}

// Ref returns the key name points at. The newline is optional on the
// way in: action entries written before refs existed have none. At most
// a key's hex, a newline and one byte more are read: every file with a
// ref's name is read by every Collect, and a stray large one must fail
// as a *RefError, not be read whole first.
func (s *DirStore) Ref(name string) (Key, bool, error) {
	if err := checkRefName(name); err != nil {
		return Key{}, false, err
	}
	file, err := os.Open(filepath.Join(s.dir, name))
	if err != nil {
		if os.IsNotExist(err) {
			err = nil
		}
		return Key{}, false, err
	}
	defer file.Close()
	var buf [2*KeySize + 2]byte
	n, err := io.ReadFull(file, buf[:])
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return Key{}, false, err
	}
	value := buf[:n]
	key, err := ParseKey(strings.TrimSuffix(string(value), "\n"))
	if err != nil {
		err = &RefError{name, fmt.Sprintf("value %.80q is not a key", value)}
	}
	return key, err == nil, err
}

// Refs returns the name of every ref, ascending: every file under the
// store directory with a valid ref name, which leaves out the chunk
// fan-out and temporaries.
func (s *DirStore) Refs() ([]string, error) {
	var names []string
	err := fs.WalkDir(os.DirFS(s.dir), ".", func(name string, d fs.DirEntry, err error) error {
		switch valid := checkRefName(name) == nil; {
		case err != nil || name == ".":
			return err
		case !valid && d.IsDir():
			return fs.SkipDir
		case valid && !d.IsDir():
			names = append(names, name)
		}
		return nil
	})
	slices.Sort(names) // WalkDir's order is of components, not of names
	return names, err
}

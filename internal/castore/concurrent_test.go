package castore

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentPutGet hammers one store of each backend from eight
// goroutines over overlapping keys: encodes run outside the store lock
// and share the codec's free lists, so this is the test the race
// detector needs to see. A single-threaded prefix pins the traffic
// counters exactly; after the storm every chunk must read back intact
// and, on MemStore, every Put must be accounted as either the one that
// inserted its key or a duplicate — including Puts that lost the
// encode-outside-the-lock race.
func TestConcurrentPutGet(t *testing.T) {
	const (
		prefix     = 16
		storm      = 48 // keys in the concurrent phase; the first `prefix` already exist
		goroutines = 8
	)
	chunk := func(i int) []byte {
		switch i % 3 {
		case 0: // text of over a block: deflated
			return bytes.Repeat([]byte(fmt.Sprintf("chunk %d ", i)), 600)
		case 1:
			b := noise(4096)
			b[0], b[1] = byte(i), byte(i>>8)
			return b
		default:
			b := make([]byte, 4096)
			b[i%4096] = byte(1 + i%255)
			return b
		}
	}
	for name, s := range stores(t) {
		for round := 0; round < 2; round++ {
			for i := 0; i < prefix; i++ {
				b := chunk(i)
				if err := s.Put(KeyOf(b), b); err != nil {
					t.Fatalf("%s: prefix put: %v", name, err)
				}
			}
		}
		st, err := s.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Puts != 2*prefix || st.DupPuts != prefix || st.Chunks != prefix {
			t.Fatalf("%s: after the prefix: %d puts, %d dups, %d chunks; want %d, %d, %d",
				name, st.Puts, st.DupPuts, st.Chunks, 2*prefix, prefix, prefix)
		}

		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for n := 0; n < storm; n++ {
					i := (n*7 + g*5) % storm // every goroutine visits every key, in its own order
					b := chunk(i)
					key := KeyOf(b)
					if err := s.Put(key, b); err != nil {
						t.Errorf("%s: put %d: %v", name, i, err)
						return
					}
					got, err := s.Get(key)
					if err != nil || !bytes.Equal(got, b) {
						t.Errorf("%s: get %d: %d bytes, err %v", name, i, len(got), err)
						return
					}
				}
			}(g)
		}
		wg.Wait()

		st, err = s.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(2*prefix + goroutines*storm); st.Puts != want || st.Chunks != storm {
			t.Errorf("%s: %d puts, %d chunks; want %d, %d", name, st.Puts, st.Chunks, want, storm)
		}
		if _, isMem := s.(*MemStore); isMem && st.Puts-st.DupPuts != int64(st.Chunks) {
			t.Errorf("mem: %d puts - %d dups != %d chunks", st.Puts, st.DupPuts, st.Chunks)
		}
		for i := 0; i < storm; i++ {
			b := chunk(i)
			if got, err := s.Get(KeyOf(b)); err != nil || !bytes.Equal(got, b) {
				t.Errorf("%s: chunk %d after the storm: %d bytes, err %v", name, i, len(got), err)
			}
		}
	}
}

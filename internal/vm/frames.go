package vm

import "sync"

// Frames is a frame pool: the pages and level-2 tables a machine's spaces
// have freed, kept for the next COW break, table copy or restore instead of
// being left to the collector. A page or table goes back to the pool when
// its last reference is dropped — by whichever space's goroutine drops it,
// so the pool takes a lock — and comes out with one reference, owned by the
// caller. A take the pool cannot serve goes to the depot, then the heap.
// The pool holds at most as many frames as its spaces ever had free at
// once, until Release hands them to the depot.
//
// The pool also knows how many of its frames are out: made counts every
// page and table it has taken from the depot or the heap, and only a take
// that finds the pool empty does that, so the count moves inside the lock
// that take already holds and a take or drop the pool can serve pays
// nothing more.
//
// Every method is nil-safe, and a nil *Frames is the Go heap: a take
// allocates and a free leaves the object to the collector.
type Frames struct {
	mu     sync.Mutex
	pages  []*page
	tables []*table
	made   int // pages and tables taken from the depot or the heap, less those released
}

// depot is the stock of frames that outlive their machine: what every
// pool held when Release emptied it, cleared, for any pool in the process
// that runs short. It holds only all-zero, unreferenced frames, so a take
// from it is byte-for-byte a new(page) or new(table), and it keeps at most
// as many pages (tables) as one release has returned.
//
//detlint:allow globalmut holds only cleared, unreferenced frames: a take is byte-for-byte a new(page) or new(table), so no machine's bytes reach another
var depot struct {
	pages  stock[page]
	tables stock[table]
}

// stock is one kind of the depot's frames.
type stock[T any] struct {
	mu       sync.Mutex
	free     []*T
	clearing int // frames releases in flight are clearing for free
	most     int // the most frames of this kind one release has returned
}

// NewFrames returns an empty pool.
func NewFrames() *Frames { return &Frames{} }

// NewSpace returns an empty address space whose pages and tables come from
// f and go back to it.
func (f *Frames) NewSpace() *Space { return &Space{frames: f} }

// page returns an exclusively owned page. A recycled page keeps the bytes
// it last held unless zero is set, so a caller that will not overwrite all
// of them must ask for zero.
func (f *Frames) page(zero bool) *page {
	var p *page
	stale := false
	if f != nil {
		p, stale = take(f, &f.pages, &depot.pages)
	}
	switch {
	case p == nil:
		p = new(page)
	case stale && zero:
		clear(p.data[:])
	}
	p.refs.Store(1)
	return p
}

// pageFrom returns an exclusively owned page holding a copy of b (at most
// PageSize bytes) and zeros after it. It is the install path for whole-page
// data arriving from image decode.
func (f *Frames) pageFrom(b []byte) *page {
	p := f.page(false)
	clear(p.data[copy(p.data[:], b):])
	return p
}

// table returns an exclusively owned table. A recycled table keeps the
// entries it last held unless zero is set, so only a caller that overwrites
// ptes and all three bitmaps whole (ownTable) may leave it unset.
func (f *Frames) table(zero bool) *table {
	var t *table
	stale := false
	if f != nil {
		t, stale = take(f, &f.tables, &depot.tables)
	}
	switch {
	case t == nil:
		t = new(table)
	case stale && zero:
		clearTable(t)
	}
	t.refs.Store(1)
	return t
}

// dropPage releases one reference to pg; the last one returns it to f.
func (f *Frames) dropPage(pg *page) {
	if pg.refs.Add(-1) == 0 && f != nil {
		push(&f.mu, &f.pages, pg)
	}
}

// dropTable releases one reference to t (nil is no table); the last one
// also releases the table's pages and returns it to f.
func (f *Frames) dropTable(t *table) {
	if t == nil || t.refs.Add(-1) != 0 {
		return
	}
	for pg := range t.pages {
		f.dropPage(pg)
	}
	if f != nil {
		push(&f.mu, &f.tables, t)
	}
}

// Live reports how many of the pool's pages and tables are out: made and
// not back in the pool. When every space drawing on f is stopped, that is
// the distinct tables those spaces and their snapshots reference plus the
// distinct pages the tables back, since a frame goes back to the pool with
// its last reference. A nil pool counts nothing.
func (f *Frames) Live() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.made - len(f.pages) - len(f.tables)
}

// Release hands every page and table f holds to the depot, where any pool
// that runs short takes them. The kernel calls it when a machine ends,
// after every space goroutine has stopped and every space and snapshot has
// been freed, so nothing can read or write the frames again. Live does not
// move: the frames leave the pool's idle and made counts together.
func (f *Frames) Release() {
	if f == nil {
		return
	}
	f.mu.Lock()
	pages, tables := f.pages, f.tables
	f.pages, f.tables = nil, nil
	f.made -= len(pages) + len(tables)
	f.mu.Unlock()
	depot.pages.keep(pages, func(p *page) { clear(p.data[:]) })
	depot.tables.keep(tables, clearTable)
}

func clearTable(t *table) {
	clear(t.occ[:])
	clear(t.rd[:])
	clear(t.wr[:])
	clear(t.ptes[:])
}

// take returns the top of stack with stale set: a recycled frame keeps the
// bytes it last held. On an empty stack it counts in f.made the frame the
// caller gets instead: a cleared one from the depot's stock s, or nil, for
// the caller to allocate.
func take[T any](f *Frames, stack *[]*T, s *stock[T]) (x *T, stale bool) {
	if x = pop(&f.mu, stack, &f.made); x != nil {
		return x, true
	}
	return pop(&s.mu, &s.free, nil), false
}

// keep clears as many of xs as the bound leaves room for and stocks them;
// the rest are left to the collector. The room is claimed in clearing
// before the lock is let go, so releases clearing at the same time never
// overfill the stock and a take is never kept waiting for a clear.
func (s *stock[T]) keep(xs []*T, zero func(*T)) {
	s.mu.Lock()
	s.most = max(s.most, len(xs))
	xs = xs[:min(len(xs), s.most-len(s.free)-s.clearing)]
	s.clearing += len(xs)
	s.mu.Unlock()
	for _, x := range xs {
		zero(x)
	}
	s.mu.Lock()
	s.free = append(s.free, xs...)
	s.clearing -= len(xs)
	s.mu.Unlock()
}

// pop takes the top of stack. On an empty stack it returns nil, after
// counting in made (when not nil) the frame the caller will get instead.
// The emptied slot is cleared, so the stack's spare capacity does not pin
// a frame after its owner lets it go.
func pop[T any](mu *sync.Mutex, stack *[]*T, made *int) *T {
	mu.Lock()
	defer mu.Unlock()
	n := len(*stack) - 1
	if n < 0 {
		if made != nil {
			*made++
		}
		return nil
	}
	x := (*stack)[n]
	(*stack)[n], *stack = nil, (*stack)[:n]
	return x
}

func push[T any](mu *sync.Mutex, stack *[]*T, x *T) {
	mu.Lock()
	*stack = append(*stack, x)
	mu.Unlock()
}

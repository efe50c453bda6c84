package vm

import "sync"

// Frames is a frame pool: the pages and level-2 tables a machine's spaces
// have freed, kept for the next COW break, table copy or restore instead of
// being left to the collector. A page or table goes back to the pool when
// its last reference is dropped — by whichever space's goroutine drops it,
// so the pool takes a lock — and comes out with one reference, owned by the
// caller. The pool holds at most as many frames as its spaces ever had free
// at once, for as long as the pool itself lives.
//
// The pool also knows how many of its frames are out: made counts every
// page and table it has ever allocated, and only a take that finds the
// pool empty allocates, so the count moves inside the lock that take
// already holds and a take or drop the pool can serve pays nothing more.
//
// Every method is nil-safe, and a nil *Frames is the Go heap: a take
// allocates and a free leaves the object to the collector.
type Frames struct {
	mu     sync.Mutex
	pages  []*page
	tables []*table
	made   int // pages and tables ever allocated for the pool
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
	if f != nil {
		p = pop(&f.mu, &f.pages, &f.made)
	}
	switch {
	case p == nil:
		p = new(page)
	case zero:
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
// ptes and occ whole may leave it unset.
func (f *Frames) table(zero bool) *table {
	var t *table
	if f != nil {
		t = pop(&f.mu, &f.tables, &f.made)
	}
	switch {
	case t == nil:
		t = new(table)
	case zero:
		clear(t.occ[:])
		clear(t.ptes[:])
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

// pop takes the top of stack, or nil after counting in made the frame the
// caller will allocate instead. The emptied slot is cleared, so the
// stack's spare capacity does not pin a frame after its owner lets it go.
func pop[T any](mu *sync.Mutex, stack *[]*T, made *int) *T {
	mu.Lock()
	defer mu.Unlock()
	n := len(*stack) - 1
	if n < 0 {
		*made++
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

package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/castore"
	"repro/internal/detmake"
)

// Tracing lives entirely in the benchmark: spans are recorded around
// calls into each layer's public functions (through decorators on the
// store, the action index, the build actions and the program callbacks),
// kept in memory, and written out when the run ends. Spans inside the
// product code are a later change, which must reuse these names.

// span is one timed call. Spans of one op share Op; Parent is the ID of
// the span that caused this one, -1 for the op's root span.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects spans. A nil *tracer records nothing, so the untraced
// and traced forms of an op share their code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (-1 from a nil tracer).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Op: op, Parent: parent, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// closed returns the spans whose end was recorded.
func (t *tracer) closed() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

func writeTrace(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes splits every op's wall time among its spans: a span's self
// time is its duration minus the part of that interval its children
// cover, children are clipped to their parent, and where children run
// concurrently the covered time is split equally among them — so a
// parent's children never exceed it and the self times of a tree sum to
// its root's duration exactly. It returns self time in nanoseconds
// summed by span name, and the summed root durations.
func selfTimes(spans []span) (byName map[string]float64, total float64) {
	byName = make(map[string]float64)
	index := make(map[int]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	kids := make(map[int][]int)
	var roots []int
	for i, s := range spans {
		if _, ok := index[s.Parent]; ok && s.Parent != s.ID {
			kids[s.Parent] = append(kids[s.Parent], i)
		} else {
			roots = append(roots, i)
		}
	}
	var walk func(i int, lo, hi int64, alloc float64)
	walk = func(i int, lo, hi int64, alloc float64) {
		s := spans[i]
		dur := float64(hi - lo)
		if dur <= 0 {
			return
		}
		scale := alloc / dur
		type clipped struct {
			i      int
			lo, hi int64
			cover  float64
		}
		var cs []clipped
		var cuts []int64
		for _, k := range kids[s.ID] {
			c := clipped{i: k, lo: max(spans[k].Start, lo), hi: min(spans[k].End, hi)}
			if c.hi > c.lo {
				cs = append(cs, c)
				cuts = append(cuts, c.lo, c.hi)
			}
		}
		sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })
		covered := 0.0
		for j := 0; j+1 < len(cuts); j++ {
			a, b := cuts[j], cuts[j+1]
			if b <= a {
				continue
			}
			n := 0
			for _, c := range cs {
				if c.lo <= a && c.hi >= b {
					n++
				}
			}
			if n == 0 {
				continue
			}
			covered += float64(b - a)
			for k := range cs {
				if cs[k].lo <= a && cs[k].hi >= b {
					cs[k].cover += float64(b-a) / float64(n)
				}
			}
		}
		byName[s.Name] += (dur - covered) * scale
		for _, c := range cs {
			walk(c.i, c.lo, c.hi, c.cover*scale)
		}
	}
	for _, r := range roots {
		d := float64(spans[r].End - spans[r].Start)
		total += d
		walk(r, spans[r].Start, spans[r].End, d)
	}
	return byName, total
}

// goid returns the calling goroutine's number. The serve replay needs it
// to tie the daemon's per-slice hooks (Fault, Clock) and the store calls
// made on a worker goroutine to the op whose slice that worker is
// running; none of those hooks carries an argument that could. Traced
// runs only.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	// "goroutine 123 [running]:"
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// storeCounts is what the store decorator counts, at the boundary where
// the work happens.
type storeCounts struct {
	mu          sync.Mutex
	seen        map[castore.Key]struct{}
	Puts        int64
	DupPuts     int64 // Puts of a key this decorator has already passed down
	Gets        int64
	StoredBytes int64 // logical bytes of the Puts that were not duplicates
}

// fresh tells the counts that the store behind the decorator is a new,
// empty one: no key has been passed down to it yet.
func (c *storeCounts) fresh() {
	c.mu.Lock()
	c.seen = nil
	c.mu.Unlock()
}

// tracedStore decorates a chunk store with spans and counts. where
// names the op and parent span a call belongs to.
type tracedStore struct {
	castore.Store
	tr     *tracer
	counts *storeCounts
	where  func() (op, parent int)
}

func (s *tracedStore) timed(name string) func() {
	op, parent := s.where()
	id := s.tr.begin(name, op, parent)
	return func() { s.tr.end(id) }
}

func (s *tracedStore) Put(k castore.Key, b []byte) error {
	c := s.counts
	c.mu.Lock()
	c.Puts++
	if _, dup := c.seen[k]; dup {
		c.DupPuts++
	} else {
		if c.seen == nil {
			c.seen = make(map[castore.Key]struct{})
		}
		c.seen[k] = struct{}{}
		c.StoredBytes += int64(len(b))
	}
	c.mu.Unlock()
	defer s.timed("castore.put")()
	return s.Store.Put(k, b)
}

func (s *tracedStore) Get(k castore.Key) ([]byte, error) {
	s.counts.mu.Lock()
	s.counts.Gets++
	s.counts.mu.Unlock()
	defer s.timed("castore.get")()
	return s.Store.Get(k)
}

func (s *tracedStore) Has(k castore.Key) (bool, error) {
	defer s.timed("castore.has")()
	return s.Store.Has(k)
}

func (s *tracedStore) Stat(k castore.Key) (castore.BlobInfo, error) {
	defer s.timed("castore.stat")()
	return s.Store.Stat(k)
}

// tracedIndex decorates detmake's action index.
type tracedIndex struct {
	detmake.ActionIndex
	tr         *tracer
	op, parent int
}

func (x *tracedIndex) Lookup(a castore.Key) (castore.Key, bool, error) {
	id := x.tr.begin("index.lookup", x.op, x.parent)
	defer x.tr.end(id)
	return x.ActionIndex.Lookup(a)
}

func (x *tracedIndex) Record(a, m castore.Key) error {
	id := x.tr.begin("index.record", x.op, x.parent)
	defer x.tr.end(id)
	return x.ActionIndex.Record(a, m)
}

// tracedActions wraps every action of base in a span.
func tracedActions(base *detmake.Actions, tr *tracer, op, parent int) *detmake.Actions {
	out := detmake.NewActions()
	for _, name := range base.Names() {
		fn, _ := base.Lookup(name)
		out.Register(name, func(c *detmake.TaskCtx) error {
			id := tr.begin("action."+name, op, parent)
			defer tr.end(id)
			return fn(c)
		})
	}
	return out
}

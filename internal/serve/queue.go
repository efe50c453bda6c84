package serve

import "sort"

// runQueue is the deterministic dispatch order: one FIFO per tenant,
// drained round-robin over the sorted tenant names. Within a tenant,
// requests run in arrival order; across tenants, service rotates
// fairly and reproducibly — the schedule is a function of the request
// sequence, never of map iteration order or goroutine timing. (The
// schedule affects only latency; session results are deterministic
// regardless, which is what makes the whole fabric retryable.) The one
// request that loses its place is a session popped while its eviction is
// still saving — possible only with several workers: it goes to the back
// of its tenant's FIFO when the save lands (Server.evict).
type runQueue struct {
	fifos map[string][]*session
	last  string // tenant served most recently; rotation resumes after it
	size  int
}

func newRunQueue() *runQueue {
	return &runQueue{fifos: make(map[string][]*session)}
}

func (q *runQueue) empty() bool { return q.size == 0 }

// push appends c to its tenant's FIFO.
func (q *runQueue) push(c *session) {
	q.fifos[c.tenant] = append(q.fifos[c.tenant], c)
	q.size++
	c.queued = true
}

// pop removes and returns the next session to run: the head of the
// first non-empty tenant FIFO strictly after the last-served tenant in
// sorted order, wrapping around.
func (q *runQueue) pop() *session {
	if q.size == 0 {
		return nil
	}
	names := make([]string, 0, len(q.fifos))
	for name, fifo := range q.fifos {
		if len(fifo) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	pick := names[0]
	for _, name := range names {
		if name > q.last {
			pick = name
			break
		}
	}
	fifo := q.fifos[pick]
	c := fifo[0]
	fifo[0] = nil
	q.fifos[pick] = fifo[1:]
	if len(q.fifos[pick]) == 0 {
		delete(q.fifos, pick)
	}
	q.last = pick
	q.size--
	c.queued = false
	return c
}

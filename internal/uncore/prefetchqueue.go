package uncore

import "bopsim/internal/mem"

// prefetchQueue is the 8-entry queue where L2 prefetch requests wait for
// access to the L3 (section 5.4). Prefetches have the lowest priority;
// when the queue is full the *oldest* request is cancelled — stale
// prefetches are the least likely to still be timely. The storage is a
// fixed ring so pushes, pops and cancellations never allocate.
type prefetchQueue struct {
	lines []mem.LineAddr // ring of cap slots
	head  int
	n     int
}

func newPrefetchQueue(capacity int) *prefetchQueue {
	return &prefetchQueue{lines: make([]mem.LineAddr, capacity)}
}

func (q *prefetchQueue) slot(i int) int {
	s := q.head + i
	if s >= len(q.lines) {
		s -= len(q.lines)
	}
	return s
}

// push inserts a prefetch target, cancelling the oldest if full, and
// reports whether it cancelled one.
func (q *prefetchQueue) push(line mem.LineAddr) (cancelled bool) {
	if cancelled = q.n >= len(q.lines); cancelled {
		q.head = q.slot(1)
		q.n--
	}
	q.lines[q.slot(q.n)] = line
	q.n++
	return cancelled
}

// contains reports whether line is already queued (associative search used
// to drop redundant prefetch requests, footnote 13).
func (q *prefetchQueue) contains(line mem.LineAddr) bool {
	for i := 0; i < q.n; i++ {
		if q.lines[q.slot(i)] == line {
			return true
		}
	}
	return false
}

// front returns the oldest request without removing it.
func (q *prefetchQueue) front() (mem.LineAddr, bool) {
	if q.n == 0 {
		return 0, false
	}
	return q.lines[q.head], true
}

// pop removes and returns the oldest request.
func (q *prefetchQueue) pop() (mem.LineAddr, bool) {
	if q.n == 0 {
		return 0, false
	}
	l := q.lines[q.head]
	q.head = q.slot(1)
	q.n--
	return l, true
}

func (q *prefetchQueue) empty() bool { return q.n == 0 }

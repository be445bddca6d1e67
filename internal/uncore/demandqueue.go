package uncore

import "bopsim/internal/mem"

// coreReq is a core-side request (demand load/store miss or DL1 stride
// prefetch) waiting to access a private L2. Everything else about it is its
// line's MSHR register, which it holds until insertDL1.
type coreReq struct {
	line    mem.LineAddr
	readyAt uint64
}

// reqQueue is a FIFO of coreReq values: pushes append and pops advance a head
// index. The array restarts at its front whenever the queue runs dry, and a
// push that would grow it first moves the live requests down over the popped
// slots, so a queue that never runs dry (a satellite core's) still stays
// within about twice its longest live length, and the steady-state demand
// path allocates nothing.
type reqQueue struct {
	reqs []coreReq
	head int
}

func (q *reqQueue) len() int        { return len(q.reqs) - q.head }
func (q *reqQueue) front() *coreReq { return &q.reqs[q.head] }

func (q *reqQueue) push(r coreReq) {
	if len(q.reqs) == cap(q.reqs) && q.head > 0 {
		q.compact()
	}
	q.reqs = append(q.reqs, r)
}

// compact moves the live requests to the front of the array: push's slow
// path, kept out of line so push stays small where it is inlined.
//
//go:noinline
func (q *reqQueue) compact() {
	q.reqs = append(q.reqs[:0], q.reqs[q.head:]...)
	q.head = 0
}

func (q *reqQueue) pop() {
	q.head++
	if q.head == len(q.reqs) {
		q.reqs = q.reqs[:0]
		q.head = 0
	}
}

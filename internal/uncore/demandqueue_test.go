package uncore

import (
	"testing"

	"bopsim/internal/mem"
)

// TestReqQueueStaysCompact keeps a demand queue busy for 10^5 pushes without
// ever letting it run dry, as a satellite core's queue is kept: bursts of 1
// to 16 pushes, each drained back down to one live request. The backing
// array must stay within twice the longest live length instead of growing
// with every push the queue ever took, and the requests must leave in the
// order they came.
func TestReqQueueStaysCompact(t *testing.T) {
	var q reqQueue
	var pushed, popped mem.LineAddr
	longest := 0
	for burst := 0; pushed < 100_000; burst++ {
		for n := 1 + burst%16; n > 0; n-- {
			q.push(coreReq{line: pushed})
			pushed++
			longest = max(longest, q.len())
		}
		for q.len() > 1 {
			if got := q.front().line; got != popped {
				t.Fatalf("popped line %d, want %d", got, popped)
			}
			q.pop()
			popped++
		}
	}
	if c := cap(q.reqs); c > 2*longest {
		t.Errorf("after %d pushes the array holds %d requests, longest live length %d", pushed, c, longest)
	}
}

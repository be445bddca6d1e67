package experiments

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestStatusTracksJobSet checks the Runner's progress snapshot: active
// with live slot assignments mid-sweep, frozen and idle afterwards.
func TestStatusTracksJobSet(t *testing.T) {
	r := tinyRunner()
	r.Workers = 2

	var mu sync.Mutex
	sawActive := false
	sawAssignment := false
	r.Progress = func(done, total int) {
		s := r.Status()
		mu.Lock()
		defer mu.Unlock()
		if s.Active {
			sawActive = true
		}
		for _, slot := range s.Slots {
			if slot.Job != "" {
				sawAssignment = true
			}
		}
	}
	r.Fig6() // 4 sims on 2 slots

	mu.Lock()
	defer mu.Unlock()
	if !sawActive {
		t.Error("Status never reported Active during the job set")
	}
	if !sawAssignment {
		t.Error("Status never showed a slot assignment during the job set")
	}
	s := r.Status()
	if s.Active {
		t.Error("Status still Active after RunJobs returned")
	}
	if s.Done != 4 || s.Total != 4 {
		t.Errorf("final status %d/%d, want 4/4", s.Done, s.Total)
	}
	if s.Executed != r.Executed() {
		t.Errorf("status Executed %d, Runner says %d", s.Executed, r.Executed())
	}
	if len(s.Slots) != 2 || !strings.HasPrefix(s.Slots[0].Label, "local/") {
		t.Errorf("slots %+v, want 2 local slots", s.Slots)
	}
	for _, slot := range s.Slots {
		if slot.Job != "" {
			t.Errorf("slot %s still shows assignment %q after completion", slot.Label, slot.Job)
		}
	}
	if s.ElapsedSeconds <= 0 || s.SimsPerSec <= 0 {
		t.Errorf("elapsed %.3fs, %.1f sims/s: want positive", s.ElapsedSeconds, s.SimsPerSec)
	}
}

// TestStatusHandlerServesJSON checks the -status endpoint end to end: the
// handler serves the snapshot as JSON and rejects non-GETs.
func TestStatusHandlerServesJSON(t *testing.T) {
	r := tinyRunner()
	r.Fig2()
	srv := httptest.NewServer(StatusHandler(r))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /progress: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}
	var s ProgressStatus
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if s.Done != 2 || s.Total != 2 || s.Active {
		t.Errorf("served status %+v, want idle 2/2", s)
	}

	post, err := http.Post(srv.URL+"/progress", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST got %s, want 405", post.Status)
	}
}

// TestAssignmentAllocatesNothing pins what marking a slot busy and idle
// costs the scheduler per job: the options are copied in, and only Status
// formats them into the slot's Job string.
func TestAssignmentAllocatesNothing(t *testing.T) {
	r := tinyRunner()
	r.beginJobSet(r.backend(), 1, 1)
	o := r.options(r.Benchmarks[0], r.Configs[0])
	if n := testing.AllocsPerRun(100, func() {
		r.setAssignment(0, &o)
		r.setAssignment(0, nil)
	}); n != 0 {
		t.Errorf("a slot assignment allocates %.0f times, want 0", n)
	}
	r.setAssignment(0, &o)
	if got, want := r.Status().Slots[0].Job, describeOptions(o); got != want {
		t.Errorf("busy slot reads %q, want %q", got, want)
	}
	r.endJobSet()
	if got := r.Status().Slots[0].Job; got != "" {
		t.Errorf("slot reads %q after the job set ended", got)
	}
}

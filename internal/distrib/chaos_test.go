package distrib

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bopsim/internal/engine"
	"bopsim/internal/experiments"
)

// lie is one way chaosHandler falsifies a worker's 200.
type lie int

const (
	// truncate sends the first half of the record, then ends the response.
	truncate lie = iota
	// replay answers with an earlier job's whole record.
	replay
	// reassign answers with a well-formed record whose stored options are
	// an earlier job's, holding this job's result.
	reassign
	// stale answers with this job's own record stamped one model version
	// back.
	stale
)

func (l lie) String() string { return [...]string{"truncate", "replay", "reassign", "stale"}[l] }

// chaosHandler sits in front of a real worker and lies on the wire. Every
// /v1/run response is delayed, and every 200 is falsified by the current
// lie. The first 200 the worker produces is kept, with its job's options,
// as the earlier job that replay and reassign draw on.
type chaosHandler struct {
	h     http.Handler
	delay time.Duration

	mu      sync.Mutex
	lie     lie
	earlier []byte         // the first honest 200 body seen
	options engine.Options // the options of its job
}

func (c *chaosHandler) setLie(l lie) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lie = l
}

func (c *chaosHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/run" {
		c.h.ServeHTTP(w, r)
		return
	}
	req, err := io.ReadAll(r.Body)
	if err != nil {
		panic(err)
	}
	var job Job
	if err := json.Unmarshal(req, &job); err != nil {
		panic(err)
	}
	r.Body = io.NopCloser(bytes.NewReader(req))
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, r)
	time.Sleep(c.delay)
	body := rec.Body.Bytes()
	if rec.Code != http.StatusOK {
		w.WriteHeader(rec.Code)
		w.Write(body)
		return
	}
	c.mu.Lock()
	if c.earlier == nil {
		c.earlier, c.options = append([]byte(nil), body...), job.Options
	}
	l, earlier, options := c.lie, c.earlier, c.options
	c.mu.Unlock()
	res, ok := experiments.EntryResult(body, job.Options)
	if !ok {
		panic("the worker answered something that is not its job's record")
	}
	w.WriteHeader(http.StatusOK)
	switch l {
	case truncate:
		w.Write(body[:len(body)/2])
	case replay:
		w.Write(earlier)
	case reassign:
		w.Write(experiments.AppendEntry(nil, options, res))
	case stale:
		// The version is one uvarint byte after the four-byte magic.
		forged := append([]byte(nil), body...)
		forged[4]--
		w.Write(forged)
	}
}

// TestLyingWorkerIsWrittenOff runs a sweep over two workers, one of them
// behind a chaosHandler, once per lie. Each time, the liar is written off
// at its first answer. Every job completes on the honest worker with the
// bytes of a local run. The coordinator's result cache holds exactly the
// entries a local run writes, so no lying answer reaches it.
//
// What the coordinator checks in-band is the rule a loader serves a record
// by: the 200 is one whole record (truncate), of this engine.ModelVersion
// (stale), storing exactly the job's options (replay, reassign). A worker
// that returns a forged Result under the right options passes all three:
// only re-executing the job can catch it, which is what `bosim -verify`
// does to a sample of the cache.
func TestLyingWorkerIsWrittenOff(t *testing.T) {
	liar := &chaosHandler{h: (&Server{Capacity: 1}).Handler(), delay: 20 * time.Millisecond}
	liarSrv := httptest.NewServer(liar)
	t.Cleanup(liarSrv.Close)
	honest, honestCount := startWorker(t, 1)

	render := func(t *testing.T, r *experiments.Runner) string {
		t.Helper()
		var buf bytes.Buffer
		if err := experiments.RenderTarget(r, "fig6", false, &buf); err != nil {
			t.Fatalf("fig6: %v", err)
		}
		return buf.String()
	}
	for _, l := range []lie{truncate, replay, reassign, stale} {
		t.Run(l.String(), func(t *testing.T) {
			// A fresh seed per lie: the earlier job replay and reassign
			// draw on belongs to the first sweep, so its key is never one
			// this sweep asks for.
			seed := uint64(l) + 1
			local := tinyRunner()
			local.Seed = seed
			local.CacheDir = t.TempDir()
			want := render(t, local)

			liar.setLie(l)
			pool, err := Dial([]string{liarSrv.URL, honest.URL}, RetryPolicy{Backoff: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			before := honestCount.runs.Load()
			remote := tinyRunner()
			remote.Seed = seed
			remote.Backend = pool
			remote.CacheDir = t.TempDir()
			if got := render(t, remote); got != want {
				t.Errorf("remote render differs from local:\n%s\n---\n%s", got, want)
			}
			if _, alive := pool.Workers(); alive != 1 {
				t.Errorf("%d workers alive, want 1: the liar was not written off", alive)
			}
			if ran := honestCount.runs.Load() - before; ran != int64(remote.Executed()) {
				t.Errorf("honest worker ran %d jobs, the sweep executed %d", ran, remote.Executed())
			}
			assertSameDir(t, local.CacheDir, remote.CacheDir)
		})
	}
}

// assertSameDir requires the result-cache files in got to be exactly those
// in want, byte for byte.
func assertSameDir(t *testing.T, want, got string) {
	t.Helper()
	wantFiles, _ := filepath.Glob(filepath.Join(want, "*.entry"))
	gotFiles, _ := filepath.Glob(filepath.Join(got, "*.entry"))
	if len(wantFiles) == 0 || len(gotFiles) != len(wantFiles) {
		t.Fatalf("%d cache entries, want %d", len(gotFiles), len(wantFiles))
	}
	for i, wf := range wantFiles {
		if filepath.Base(gotFiles[i]) != filepath.Base(wf) {
			t.Fatalf("cache entry %s, want %s", filepath.Base(gotFiles[i]), filepath.Base(wf))
		}
		wb, err := os.ReadFile(wf)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := os.ReadFile(gotFiles[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wb, gb) {
			t.Errorf("cache entry %s differs from the local run's:\n%q\n---\n%q",
				filepath.Base(wf), strings.TrimSpace(string(gb)), strings.TrimSpace(string(wb)))
		}
	}
}

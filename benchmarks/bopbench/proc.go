package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Every measurement runs in a child process of its own, so peak_rss_mb and
// heap state belong to the workload alone: the parent generates the inputs
// (set-up), starts the child, and the child reports "ready" once it has
// read them and finished its untimed first rep. Set-up time runs from the
// start of input generation to that line.

// childEnv names the inputs file; its presence makes the binary a child.
const childEnv = "BOPBENCH_CHILD"

const (
	readyLine    = "ready"
	resultPrefix = "result "
)

// childMain is the measuring process. It prints readyLine, then
// resultPrefix followed by the childResult JSON.
func childMain(inputsPath string) int {
	raw, err := os.ReadFile(inputsPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bopbench child:", err)
		return 1
	}
	var in inputs
	if err := json.Unmarshal(raw, &in); err != nil {
		fmt.Fprintln(os.Stderr, "bopbench child:", err)
		return 1
	}
	ready := func() { fmt.Println(readyLine) }
	var res childResult
	switch {
	case !in.Traced && in.Workload.solo():
		res = measureSolo(in, ready)
	case !in.Traced:
		res = measureSweep(in, ready)
	default:
		ready()
		rec := newRecorder(in.Workload.Name)
		if in.Workload.solo() {
			res = traceSolo(in, rec)
		} else {
			res = traceSweep(in, rec)
		}
		if err := writeSpans(filepath.Join(in.Dir, "spans.jsonl"), rec.spans); err != nil {
			res.fail("writing spans: %v", err)
		}
	}
	res.PeakRSSMB, err = peakRSSMB()
	if err != nil {
		res.fail("peak RSS: %v", err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bopbench child:", err)
		return 1
	}
	fmt.Println(resultPrefix + string(b))
	return 0
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %v", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// setUp generates the workload-specific part of one child's inputs and
// writes them under in.Dir. For sweep-warm that includes the cold render
// that populates the cache the child reads.
func setUp(in inputs) error {
	if err := os.MkdirAll(in.Dir, 0o755); err != nil {
		return err
	}
	w := in.Workload
	switch {
	case w.solo():
		o, err := w.soloOptions(in.Seed)
		if err != nil {
			return err
		}
		in.Solo = &o
	case w.Mode == sweepWarm:
		in.CacheDir = filepath.Join(in.Dir, "cache")
		r := newRunner(w, in.Seed, sweepWorkers)
		r.CacheDir = in.CacheDir
		cold, err := render(r)
		if err != nil {
			return err
		}
		in.ColdDigest = digestBytes(cold)
		in.Sims = int(r.Executed())
	}
	raw, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(in.Dir, "inputs.json"), raw, 0o644)
}

// runChild sets up and runs one child to completion. setupS is the time from
// the start of set-up to the child's ready line.
func runChild(in inputs) (res childResult, setupS float64, err error) {
	// Set-up of a single simulation is one thread's work like the reps, so
	// it is normalised the same way; a sweep's is reported raw.
	slowdown := 1.0
	if in.Workload.solo() {
		slowdown = hostSlowdown()
	}
	start := time.Now()
	if err := setUp(in); err != nil {
		return childResult{}, 0, fmt.Errorf("set-up: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return childResult{}, 0, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), childEnv+"="+filepath.Join(in.Dir, "inputs.json"))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return childResult{}, 0, err
	}
	if err := cmd.Start(); err != nil {
		return childResult{}, 0, err
	}
	var got bool
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		line := sc.Text()
		if line == readyLine {
			setupS = time.Since(start).Seconds()
			if in.Workload.solo() {
				slowdown = (slowdown + hostSlowdown()) / 2
			}
			setupS /= slowdown
		} else if rest, ok := strings.CutPrefix(line, resultPrefix); ok {
			if jerr := json.Unmarshal([]byte(rest), &res); jerr != nil {
				err = fmt.Errorf("child result: %w", jerr)
			}
			got = true
		}
	}
	// Wait reaps the child on every path, so none outlives the parent.
	if werr := cmd.Wait(); werr != nil {
		return childResult{}, 0, fmt.Errorf("child: %w", werr)
	}
	if err == nil && !got {
		err = fmt.Errorf("child printed no result")
	}
	return res, setupS, err
}

// host records the facts a reader needs to place the numbers.
type host struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	OSArch     string  `json:"os_arch"`
	Load1      float64 `json:"load1"`
	Workers    int     `json:"sweep_workers"`
}

func hostFacts() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		OSArch: runtime.GOOS + "/" + runtime.GOARCH, Workers: sweepWorkers}
	if raw, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(raw)); len(f) > 0 {
			h.Load1, _ = strconv.ParseFloat(f[0], 64) // informational; 0 when unreadable
		}
	}
	return h
}

package analysis

import "strings"

// Package classification. The nondeterm analyzer applies only to
// result-affecting packages: the ones whose code can influence simulation
// output bytes. Infrastructure — the experiment scheduler's progress
// display, the distrib wire, profiling, the CLIs, and this analysis suite
// itself — may freely consult clocks and the environment; what it must never
// do is leak that into a Result, and that boundary is exactly the package
// boundary listed here.
//
// A new internal package is infra only if it appears in infraPackages;
// everything else under bopsim/internal/ defaults to result-affecting, so
// forgetting to classify a new simulator package fails closed (the analyzer
// runs on it) rather than open.
var infraPackages = map[string]bool{
	"experiments": true, // scheduler/status: progress rates use wall clocks
	"distrib":     true, // HTTP transport, retry timing
	"profiling":   true, // pprof plumbing
	"plot":        true, // table rendering, not part of Result bytes
	"analysis":    true, // this suite
}

const modulePrefix = "bopsim/"

// ResultAffecting reports whether pkgPath participates in simulation
// results. cmd/* and anything outside the module are infra; internal
// packages are result-affecting unless explicitly listed as infra.
func ResultAffecting(pkgPath string) bool {
	rest, ok := strings.CutPrefix(pkgPath, modulePrefix+"internal/")
	if !ok {
		return false
	}
	top, _, _ := strings.Cut(rest, "/")
	return !infraPackages[top]
}

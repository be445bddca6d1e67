package experiments

import (
	"bytes"

	"bopsim/internal/engine"
)

// A result-cache entry is one record, <dir>/<OptionsHash>.entry, in
// engine's result-record layout (engine.AppendEntry) with the JSON of the
// run's normalized engine.Options as its options (runKey's second result).
// The options stay JSON so that a human can still read what produced an
// entry; a loader never decodes them, it compares them with the bytes its
// own key came from.
const entryExt = ".entry"

// AppendEntry appends the record of a run of o whose result is res: the
// bytes a local run stores under OptionsHash(o), and what a distrib worker
// answers a job with.
func AppendEntry(b []byte, o engine.Options, res engine.Result) []byte {
	_, opts := runKey(o)
	return engine.AppendEntry(b, opts, res)
}

// EntryResult returns the result of the record b when b is a record of a run
// of o, by the rule a loader serves a record by (acceptEntry).
func EntryResult(b []byte, o engine.Options) (engine.Result, bool) {
	_, opts := runKey(o)
	return acceptEntry(b, opts)
}

// acceptEntry returns the result of the record b when b is one whole record
// of this engine.ModelVersion that stores exactly opts: a record of another
// run, or of another version, is a miss.
func acceptEntry(b, opts []byte) (engine.Result, bool) {
	stored, res, err := engine.DecodeEntry(b)
	if err != nil || !bytes.Equal(stored, opts) {
		return engine.Result{}, false
	}
	return res, true
}

package obs

import (
	"fmt"
	"io"
)

// Write writes the trace in the given format: "chrome" (Perfetto/Chrome
// trace-event JSON, with the counter tracks derived from batch spans) or
// "ndjson" (one span per line).
func (t *Trace) Write(w io.Writer, format string) error {
	switch format {
	case "", "chrome":
		return t.WriteChrome(w)
	case "ndjson":
		return t.WriteNDJSON(w)
	default:
		return fmt.Errorf("obs: unknown trace format %q (want chrome or ndjson)", format)
	}
}

// profileWriter is the registered profile renderer. The profiler lives in
// the subpackage internal/obs/profile — which imports obs and therefore
// cannot be imported from here — so, in the manner of database/sql drivers,
// importing that package registers its writer at init time.
var profileWriter func(t *Trace, w io.Writer, format string) error

// RegisterProfileWriter installs the profile renderer WriteProfile delegates
// to. Called from the profile package's init; must not be called after
// traces are in use.
func RegisterProfileWriter(fn func(t *Trace, w io.Writer, format string) error) {
	profileWriter = fn
}

// WriteProfile renders the post-hoc profile of the trace — per-span cost
// attribution, critical-path/slack analysis and the EXPLAIN-style report — in
// "text" or "json" format. Requires the profile package to be linked in
// (import repro/internal/obs/profile for side effects).
func (t *Trace) WriteProfile(w io.Writer, format string) error {
	if profileWriter == nil {
		return fmt.Errorf("obs: no profile writer registered (import repro/internal/obs/profile)")
	}
	return profileWriter(t, w, format)
}

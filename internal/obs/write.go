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

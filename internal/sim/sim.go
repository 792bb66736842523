// Package sim provides the deterministic virtual clock, cost model and
// operation counters that every subsystem in this repository charges into.
//
// The paper reports wall-clock seconds measured on 1999-era hardware
// (Pentium-II, 128 MB RAM, Microsoft SQL Server 7.0). Re-measuring wall time
// on a modern host would neither match the paper's absolute numbers nor be
// deterministic, so instead every data-touching operation — a page read at
// the server, a row shipped over the "wire" to the middleware, a row read
// back from a middleware staging file, a row counted from middleware memory,
// a SQL aggregation step — advances a virtual clock by a calibrated cost.
// The *relative* magnitudes of these costs encode the orderings the paper's
// results depend on (server cursor fetch >> local file read >> in-memory
// read), so the shapes of the figures are reproduced deterministically.
//
// A Meter combines the clock with named counters (scans started, pages read,
// rows transmitted, ...) so experiments can report both virtual time and the
// underlying operation counts.
package sim

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Costs is the calibrated cost model, in virtual nanoseconds per operation.
// The defaults (see DefaultCosts) are chosen so that a sequential scan of a
// 50 MB table through a server cursor costs a few virtual seconds, matching
// the scale of the paper's figures.
type Costs struct {
	// Server-side costs.
	ServerPageIO   int64 // read one 8 KB page from server disk
	ServerRowCPU   int64 // evaluate the pushed-down filter on one row at the server
	RowTransmit    int64 // ship one matching row from server to middleware
	CursorOpen     int64 // initiate a server cursor scan
	QueryStartup   int64 // parse/optimize one SQL statement at the server
	SQLAggRow      int64 // aggregate one row in a server-side GROUP BY
	IndexProbe     int64 // traverse one index node / probe one hash bucket
	TIDFetch       int64 // fetch one record by TID (random I/O amortized)
	ServerRowWrite int64 // insert one row into a server-side (temp) table

	// Columnar scan-path costs (the vectorized per-block charge shape; the
	// row path above never charges these).
	ColRowEval     int64 // evaluate the pushed-down filter on one row of a columnar block
	ColRowTransmit int64 // ship one matching row of a columnar block to the middleware

	// Middleware-side costs.
	FileRowWrite int64 // append one row to a middleware staging file
	FileRowRead  int64 // read one row back from a middleware staging file
	FileOpen     int64 // create/open one middleware staging file
	MemRowRead   int64 // touch one row staged in middleware memory
	CCBump       int64 // bump one dense histogram cell for one selected row (vectorized kernel); a derived child (parent − siblings) is charged as if counted
	CCFoldEntry  int64 // fold one histogram cell into the counts table, charged per (node, block, attribute) on the bound min(rows, values × classes); a derived child is charged the same

	// Client-side costs.
	ClientRowLoad int64 // materialize one extracted row at the client (ExtractAll baseline)

	// Scoring costs (the in-database prediction path; the in-client
	// dtree.Evaluate loop never charges these).
	ScoreRowEval   int64 // per-row fixed overhead of the vectorized scoring kernel
	ModelNodeProbe int64 // walk one compiled-model node for one row (code-space compare)
}

// DefaultCosts returns the calibrated default cost model.
//
// Relative ordering (per row): server cursor fetch (RowTransmit + ServerRowCPU
// + amortized ServerPageIO) ≈ 13 µs >> file read ≈ 1.5 µs >> memory read
// ≈ 0.15 µs. A 50 MB table (≈ 500 k rows of 100 bytes) therefore costs
// roughly 6.5 virtual seconds per full server scan, in line with the scale
// of the paper's charts.
func DefaultCosts() Costs {
	return Costs{
		ServerPageIO:   200_000, // 200 µs per 8 KB page
		ServerRowCPU:   1_000,
		RowTransmit:    8_000,
		CursorOpen:     5_000_000,  // 5 ms per scan initiation
		QueryStartup:   20_000_000, // 20 ms per SQL statement
		SQLAggRow:      2_000,
		IndexProbe:     4_000,
		TIDFetch:       80_000, // random I/O dominated
		ServerRowWrite: 15_000,

		// The columnar block scan amortizes cursor bookkeeping, predicate
		// dispatch and the wire protocol over 1024-row blocks: filter
		// evaluation is a dictionary-code compare per condition (~1/8 of the
		// row-at-a-time interpreter) and block transfer quarters the per-row
		// transmit overhead. Page I/O is charged at the unchanged
		// ServerPageIO — the columnar win on I/O comes from reading fewer,
		// denser pages (dictionary packing and zone-map skipping), not from a
		// cheaper page.
		ColRowEval:     125,
		ColRowTransmit: 2_000,

		// Middleware files live on the middleware machine's disk, so
		// reading them is not fundamentally cheaper per row than the
		// server's own sequential scan (~3.6 µs/row including page I/O);
		// the file's advantage is avoiding the per-row wire transfer, the
		// server's advantage is filtering before transmitting (§4.3.1,
		// Figure 8a's crossover).
		FileRowWrite: 8_000,
		FileRowRead:  6_000,
		FileOpen:     1_000_000, // 1 ms
		MemRowRead:   150,
		// The counting costs model the paper's §5 search-tree counts table; the
		// flat cc.Table of this process is faster, and charges nothing itself.
		CCBump:      8,  // dense array increment per selected row (no search-tree probe)
		CCFoldEntry: 80, // search-tree insert per cell of the fold's bound, min(rows, values × classes), per (node, block, attribute)

		ClientRowLoad: 500,

		// Scoring walks the compiled model in dictionary-code space: per row
		// a fixed dispatch overhead plus one probe per visited node, each a
		// uint16 compare — far below the per-row interpreter costs of the
		// client loop (ClientRowLoad + RowTransmit per row).
		ScoreRowEval:   100,
		ModelNodeProbe: 40,
	}
}

// Counter identifies one named operation counter on a Meter.
type Counter int

// The counters tracked by a Meter.
const (
	CtrServerScans      Counter = iota // server cursor scans initiated
	CtrServerPages                     // server pages read
	CtrServerRows                      // rows evaluated at the server
	CtrRowsTransmitted                 // rows shipped server -> middleware
	CtrSQLStatements                   // SQL statements executed
	CtrSQLAggRows                      // rows aggregated server-side
	CtrIndexProbes                     // index probes
	CtrTIDFetches                      // record fetches by TID
	CtrFileRowsWritten                 // rows written to middleware files
	CtrFileRowsRead                    // rows read from middleware files
	CtrFilesCreated                    // middleware staging files created
	CtrMemRowsRead                     // rows read from middleware memory
	CtrCCUpdates                       // counts-table updates
	CtrClientRows                      // rows materialized at the client
	CtrBatches                         // middleware scheduling batches executed
	CtrSQLFallbacks                    // nodes serviced by the SQL fallback path
	CtrColGroupsScanned                // columnar row groups scanned
	CtrColGroupsSkipped                // columnar row groups skipped via zone maps
	CtrColBlocks                       // columnar 1024-row blocks evaluated
	CtrCCFolds                         // histogram cells charged to CC-table folds, on each fold's bound
	CtrScoreRows                       // rows scored by the in-database prediction path
	CtrScoreBlocks                     // columnar blocks pushed through the scoring kernel
	CtrModelProbes                     // compiled-model nodes walked while scoring
	numCounters
)

var counterNames = [...]string{
	CtrServerScans:      "server_scans",
	CtrServerPages:      "server_pages_read",
	CtrServerRows:       "server_rows_evaluated",
	CtrRowsTransmitted:  "rows_transmitted",
	CtrSQLStatements:    "sql_statements",
	CtrSQLAggRows:       "sql_agg_rows",
	CtrIndexProbes:      "index_probes",
	CtrTIDFetches:       "tid_fetches",
	CtrFileRowsWritten:  "file_rows_written",
	CtrFileRowsRead:     "file_rows_read",
	CtrFilesCreated:     "files_created",
	CtrMemRowsRead:      "mem_rows_read",
	CtrCCUpdates:        "cc_updates",
	CtrClientRows:       "client_rows_loaded",
	CtrBatches:          "mw_batches",
	CtrSQLFallbacks:     "sql_fallbacks",
	CtrColGroupsScanned: "col_groups_scanned",
	CtrColGroupsSkipped: "col_groups_skipped",
	CtrColBlocks:        "col_blocks",
	CtrCCFolds:          "cc_folds",
	CtrScoreRows:        "score_rows",
	CtrScoreBlocks:      "score_blocks",
	CtrModelProbes:      "model_node_probes",
}

// Counters returns every counter in declaration order.
func Counters() []Counter {
	out := make([]Counter, numCounters)
	for c := Counter(0); c < numCounters; c++ {
		out[c] = c
	}
	return out
}

// String returns the snake_case name of the counter.
func (c Counter) String() string {
	if c < 0 || int(c) >= len(counterNames) {
		return fmt.Sprintf("counter(%d)", int(c))
	}
	return counterNames[c]
}

// Meter is a virtual clock plus operation counters. The zero value is not
// ready for use; construct one with NewMeter. A Meter is not safe for
// concurrent use: every simulated thread of control charges its own Meter.
// A scan split into segments gives each segment goroutine a private meter
// (Fork) and folds them back in order (JoinSerial), so no Meter is ever
// shared between goroutines.
type Meter struct {
	costs  Costs
	now    int64 // virtual nanoseconds since start
	counts [numCounters]int64
}

// NewMeter returns a Meter using the given cost model.
func NewMeter(c Costs) *Meter { return &Meter{costs: c} }

// NewDefaultMeter returns a Meter using DefaultCosts.
func NewDefaultMeter() *Meter { return NewMeter(DefaultCosts()) }

// Costs returns the meter's cost model.
func (m *Meter) Costs() Costs { return m.costs }

// Now returns the current virtual time.
func (m *Meter) Now() time.Duration { return time.Duration(m.now) }

// Advance moves the virtual clock forward by d virtual nanoseconds.
func (m *Meter) Advance(d int64) {
	if d < 0 {
		panic("sim: negative clock advance")
	}
	m.now += d
}

// Charge advances the clock by n times the unit cost and increments the
// counter by n. It is the single point through which all simulated work is
// accounted: two additions, no allocation, no callback — observability reads
// the meter at span boundaries (internal/obs), it is never called from here.
func (m *Meter) Charge(c Counter, unitCost int64, n int64) {
	if n < 0 {
		panic("sim: negative charge count")
	}
	m.counts[c] += n
	m.now += unitCost * n
}

// Count returns the current value of a counter.
func (m *Meter) Count(c Counter) int64 { return m.counts[c] }

// Fork returns n child meters sharing the parent's cost table, each with a
// zeroed clock and zeroed counters. Each child is one segment of a scan: its
// goroutine charges all of its simulated work into its own meter, so host
// scheduling can never affect any meter. The parent must not be charged
// between Fork and the matching JoinSerial, and each child must be used by
// exactly one goroutine.
func (m *Meter) Fork(n int) []*Meter {
	if n < 1 {
		panic("sim: Fork needs at least one meter")
	}
	segs := make([]*Meter, n)
	for i := range segs {
		segs[i] = NewMeter(m.costs)
	}
	return segs
}

// JoinSerial folds forked meters back into the parent: counters sum, and
// the clock advances by the sum of their elapsed times. The segments split
// one modeled worker's work across host goroutines (obs.RunSegments), and
// that worker does it one piece after another. Every charge is unit cost × count,
// so the parent ends exactly where charging the whole work to it directly
// would have left it, however the work was split.
func (m *Meter) JoinSerial(segs []*Meter) {
	for _, l := range segs {
		for i := range l.counts {
			m.counts[i] += l.counts[i]
		}
		m.now += l.now
	}
}

// Reset zeroes the clock and all counters, keeping the cost model.
func (m *Meter) Reset() {
	m.now = 0
	m.counts = [numCounters]int64{}
}

// Snapshot captures the meter state so a caller can compute deltas around a
// region of interest.
type Snapshot struct {
	Now    time.Duration
	Counts map[Counter]int64
}

// Snapshot returns a copy of the current clock and counters.
func (m *Meter) Snapshot() Snapshot {
	s := Snapshot{Now: m.Now(), Counts: make(map[Counter]int64, numCounters)}
	for c := Counter(0); c < numCounters; c++ {
		if m.counts[c] != 0 {
			s.Counts[c] = m.counts[c]
		}
	}
	return s
}

// Since returns the virtual time elapsed since the snapshot was taken.
func (m *Meter) Since(s Snapshot) time.Duration { return m.Now() - s.Now }

// CountSince returns the counter delta since the snapshot was taken.
func (m *Meter) CountSince(s Snapshot, c Counter) int64 {
	return m.counts[c] - s.Counts[c]
}

// CounterVec is a dense copy of every counter value, indexed by Counter in
// declaration order. It is the allocation-light companion of Snapshot for
// span-boundary captures (internal/obs): copying the array is one memmove,
// no map, so tracing can snapshot counters at every span start and end
// without perturbing the simulation or the garbage collector.
type CounterVec [numCounters]int64

// CounterVec returns the current value of every counter as a dense vector.
func (m *Meter) CounterVec() CounterVec { return m.counts }

// Delta returns v - base, elementwise: the counter movement between two
// boundary captures.
func (v CounterVec) Delta(base CounterVec) CounterVec {
	for i := range v {
		v[i] -= base[i]
	}
	return v
}

// Sub subtracts o from v in place (used to turn inclusive counter deltas
// into exclusive ones by removing child-span contributions).
func (v *CounterVec) Sub(o *CounterVec) {
	for i := range v {
		v[i] -= o[i]
	}
}

// Add accumulates o into v in place.
func (v *CounterVec) Add(o *CounterVec) {
	for i := range v {
		v[i] += o[i]
	}
}

// Get returns the vector's value for counter c (0 when out of range).
func (v *CounterVec) Get(c Counter) int64 {
	if c < 0 || c >= numCounters {
		return 0
	}
	return v[c]
}

// IsZero reports whether every counter in the vector is zero.
func (v *CounterVec) IsZero() bool {
	for _, n := range v {
		if n != 0 {
			return false
		}
	}
	return true
}

// EachNonZero calls fn for every non-zero counter in declaration order —
// deterministic by construction, unlike ranging over a map snapshot.
func (v *CounterVec) EachNonZero(fn func(c Counter, n int64)) {
	for i, n := range v {
		if n != 0 {
			fn(Counter(i), n)
		}
	}
}

// String renders the non-zero counters, sorted by name, plus the clock.
func (m *Meter) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%v", m.Now())
	type kv struct {
		name string
		v    int64
	}
	var kvs []kv
	for c := Counter(0); c < numCounters; c++ {
		if m.counts[c] != 0 {
			kvs = append(kvs, kv{c.String(), m.counts[c]})
		}
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].name < kvs[j].name })
	for _, e := range kvs {
		fmt.Fprintf(&b, " %s=%d", e.name, e.v)
	}
	return b.String()
}

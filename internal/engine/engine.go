// Package engine implements the embedded relational engine that stands in
// for Microsoft SQL Server 7.0, the backend the paper's middleware runs
// against. It provides:
//
//   - a catalog of heap-organized tables of integer (categorical-code)
//     columns, each stored once as column-major row groups and charged as 8 KB
//     heap pages through internal/storage;
//   - a SQL executor for the subset parsed by internal/sqlparser, including
//     the UNION-of-GROUP-BY counts queries of §2.3 (each UNION arm performs
//     its own scan: the engine's optimizer, like the commercial optimizers
//     the paper discusses, does not exploit the commonality across arms).
//     A SELECT core reads one table, one way: a columnar scan with its
//     equality conjuncts pushed down (access.go). There are no secondary
//     indexes, no joins and no DELETE: tables are append-only until dropped;
//   - the OLE-DB-like cursor surface the middleware consumes (Server):
//     firehose cursors with pushed-down filter expressions, keyset cursors
//     with an optional stored-procedure filter (§4.3.3c), TID-join access
//     (§4.3.3b), and subset copying into temp tables (§4.3.3a).
//
// All work is metered through a sim.Meter so experiments measure
// deterministic virtual time.
package engine

import (
	"fmt"
	"sort"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Table is one heap-organized table: named integer columns, their rows and
// the heap geometry they are charged under. Rows are only ever appended.
type Table struct {
	Name     string
	Cols     []string
	colstore *storage.ColStore // the rows: the table's one stored copy
	heap     *storage.HeapFile // colstore's pages
}

// NumRows returns the number of rows in the table.
func (t *Table) NumRows() int64 { return t.heap.NumRows() }

// NumPages returns the number of pages backing the table.
func (t *Table) NumPages() int { return t.heap.NumPages() }

// Bytes returns the on-disk size of the table.
func (t *Table) Bytes() int64 { return t.heap.Bytes() }

// Engine is the embedded database: a catalog of tables, and the meter its own
// statements charge.
type Engine struct {
	*catalog
	meter  *sim.Meter
	tracer *obs.Tracer
}

// catalog is what every view of one engine shares. A view (Engine.view) holds
// the same catalog under its own meter and tracer, so a statement charges the
// meter of the view that ran it; nothing two views could disagree about is
// copied into one.
type catalog struct {
	tables map[string]*Table
	models map[string]*Model // registered scoring models, by name (model.go)
	tmpSeq int
}

// New creates an engine with the given meter. The server has no buffer cache:
// every heap page a scan enters is paid for.
//
// Deprecated: bufferPages is ignored. It stays until the benchmark stops
// passing it (ROADMAP item 1).
func New(meter *sim.Meter, bufferPages int) *Engine {
	return &Engine{meter: meter, catalog: &catalog{
		tables: make(map[string]*Table),
		models: make(map[string]*Model),
	}}
}

// view returns the engine under another meter and tracer: same catalog and
// temp-name sequence.
func (e *Engine) view(meter *sim.Meter, tracer *obs.Tracer) *Engine {
	return &Engine{catalog: e.catalog, meter: meter, tracer: tracer}
}

// Meter returns the engine's meter.
func (e *Engine) Meter() *sim.Meter { return e.meter }

// SetTracer attaches an observability tracer clocked by the engine's meter.
// Spans open around SQL statements, cursor scans and aux-structure builds;
// a nil tracer (the default) disables all of it at zero allocation cost.
func (e *Engine) SetTracer(tr *obs.Tracer) { e.tracer = tr }

// CreateTable creates an empty table with the given integer columns.
func (e *Engine) CreateTable(name string, cols []string) (*Table, error) {
	if _, ok := e.tables[name]; ok {
		return nil, fmt.Errorf("engine: table %q already exists", name)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("engine: table %q must have at least one column", name)
	}
	seen := map[string]bool{}
	for _, c := range cols {
		if c == "" || seen[c] {
			return nil, fmt.Errorf("engine: table %q: duplicate or empty column %q", name, c)
		}
		seen[c] = true
	}
	cs := storage.NewColStore(len(cols))
	t := &Table{
		Name:     name,
		Cols:     append([]string(nil), cols...),
		colstore: cs,
		heap:     storage.NewHeapFile(cs),
	}
	e.tables[name] = t
	return t, nil
}

// DropTable removes a table.
func (e *Engine) DropTable(name string) error {
	if _, ok := e.tables[name]; !ok {
		return fmt.Errorf("engine: no table %q", name)
	}
	delete(e.tables, name)
	// Dropping a model's catalog table unregisters the model: the cached
	// copy must not outlive its persisted form.
	if rest, ok := cutPrefix(name, ModelCatalogPrefix); ok {
		delete(e.models, rest)
	}
	return nil
}

func cutPrefix(s, prefix string) (string, bool) {
	if len(s) >= len(prefix) && s[:len(prefix)] == prefix {
		return s[len(prefix):], true
	}
	return s, false
}

// Table looks up a table by name.
func (e *Engine) Table(name string) (*Table, error) {
	t, ok := e.tables[name]
	if !ok {
		return nil, fmt.Errorf("engine: no table %q", name)
	}
	return t, nil
}

// TableNames returns the catalog's table names, sorted.
func (e *Engine) TableNames() []string {
	names := make([]string, 0, len(e.tables))
	for n := range e.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Insert appends one row, charging the server row-write cost.
func (e *Engine) Insert(t *Table, r data.Row) error {
	if len(r) != len(t.Cols) {
		return fmt.Errorf("engine: insert into %q: %d values, want %d", t.Name, len(r), len(t.Cols))
	}
	t.colstore.Append(r)
	e.meter.Charge(sim.CtrServerRows, e.meter.Costs().ServerRowWrite, 1)
	return nil
}

// BulkLoad inserts many rows without per-row write metering (modeling a bulk
// load utility, used to populate experiment tables without polluting the
// measured phase).
func (e *Engine) BulkLoad(t *Table, rows []data.Row) error {
	for _, r := range rows {
		if len(r) != len(t.Cols) {
			return fmt.Errorf("engine: bulk load into %q: %d values, want %d", t.Name, len(r), len(t.Cols))
		}
		t.colstore.Append(r)
	}
	return nil
}

// tempName generates a unique temp-table name.
func (e *Engine) tempName() string {
	e.tmpSeq++
	return fmt.Sprintf("#tmp%d", e.tmpSeq)
}

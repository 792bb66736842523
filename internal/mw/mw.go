// Package mw implements the paper's scalable classification middleware
// (§3–§4): the layer between a sufficient-statistics-driven classification
// client and the SQL backend.
//
// The client queues a batch of requests, one per active tree node, each
// asking for the node's counts (CC) table. The middleware's scheduler picks
// which requests to service next (priority Rules 1–3 of §4.2.2), the
// execution module builds all their CC tables in a single scan of the best
// available data source (§4.1.1), and the stager copies shrinking relevant
// data from the server to middleware files and to middleware memory
// (Rules 4–6 of §4.2.3, file splitting per §4.3.2). The client then consumes
// the fulfilled counts tables, grows the tree one level at those nodes, and
// queues requests for the new active nodes — the interaction of Figure 3.
package mw

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/cc"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/sim"
	"repro/internal/storage"
)

// StagingMode selects which staging tiers the middleware may use (§4.1.2:
// "staging can be completely disabled or can be restricted to only caching
// in middleware files ... or to only memory caching").
type StagingMode int

const (
	// StageNone disables staging: every batch scans the server.
	StageNone StagingMode = iota
	// StageFileOnly allows staging to middleware files but not to memory.
	StageFileOnly
	// StageMemoryOnly allows staging to middleware memory but not to files.
	StageMemoryOnly
	// StageFileAndMemory allows the full server -> file -> memory migration.
	StageFileAndMemory
)

// String names the staging mode.
func (m StagingMode) String() string {
	switch m {
	case StageNone:
		return "none"
	case StageFileOnly:
		return "file"
	case StageMemoryOnly:
		return "memory"
	case StageFileAndMemory:
		return "file+memory"
	}
	return fmt.Sprintf("staging(%d)", int(m))
}

// FilePolicy selects the file-splitting behaviour of §4.3.2 / Figure 6.
type FilePolicy int

const (
	// FileSplitThreshold creates a new, smaller file when the fraction of a
	// staged file's rows used by the current batch falls below Threshold
	// (configuration 3 of Figure 6 at 50%).
	FileSplitThreshold FilePolicy = iota
	// FilePerNode creates a new staging file for every node serviced
	// (configuration 1 of Figure 6; equivalent to a 100% threshold).
	FilePerNode
	// FileSingleton creates one staging file for the whole tree and
	// repeatedly scans it (configuration 2 of Figure 6).
	FileSingleton
)

// String names the file policy.
func (p FilePolicy) String() string {
	switch p {
	case FileSplitThreshold:
		return "split-threshold"
	case FilePerNode:
		return "file-per-node"
	case FileSingleton:
		return "singleton"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ServerAccess selects how the middleware reads the shrinking relevant
// subset from the server (§4.3.3). AccessScan is the paper's recommended
// mode; the others exist to reproduce the index-scan experiment (§5.2.5).
type ServerAccess int

const (
	// AccessScan uses sequential cursor scans with the filter expression
	// pushed down (the default and the paper's winner).
	AccessScan ServerAccess = iota
	// AccessKeyset builds a server keyset cursor over the relevant subset
	// once it shrinks below AuxThreshold and re-scans it with a
	// stored-procedure filter (§4.3.3c).
	AccessKeyset
	// AccessTIDJoin copies the TIDs of the relevant subset into a temp
	// table and retrieves the subset with a TID join (§4.3.3b).
	AccessTIDJoin
	// AccessCopyTable copies the relevant subset into a new server-side
	// temp table and scans that (§4.3.3a).
	AccessCopyTable
)

// String names the access mode.
func (a ServerAccess) String() string {
	switch a {
	case AccessScan:
		return "scan"
	case AccessKeyset:
		return "keyset"
	case AccessTIDJoin:
		return "tid-join"
	case AccessCopyTable:
		return "copy-table"
	}
	return fmt.Sprintf("access(%d)", int(a))
}

// Config tunes the middleware. The zero value is usable: no staging, an
// effectively unlimited memory budget, and sequential server access.
type Config struct {
	// Memory is the middleware memory budget in bytes, shared between CC
	// tables under construction (or awaiting consumption) and data staged
	// in memory. Zero means unlimited.
	Memory int64
	// Staging selects the allowed staging tiers.
	Staging StagingMode
	// FilePolicy selects file-splitting behaviour (Figure 6).
	FilePolicy FilePolicy
	// Threshold is the file-split threshold for FileSplitThreshold
	// (default 0.5, the paper's 50%).
	Threshold float64
	// Dir is the directory staging files go under ("" = the OS temp dir): the
	// middleware works in a private subdirectory of it, which Close removes.
	Dir string
	// Access selects the server access mode (§4.3.3 experiments).
	Access ServerAccess
	// AuxThreshold is the relevant-data fraction below which the auxiliary
	// server structures of §4.3.3 are built (default 0.10, the paper's
	// "around 10%").
	AuxThreshold float64
	// MaxBatch caps the number of nodes serviced per scan (0 = unlimited);
	// the paper's memory budget normally provides the cap.
	MaxBatch int
	// Workers is ignored: every batch's scan is one pass over its source,
	// the paper's sequential execution module. A pass whose batch stages
	// nothing and whose budget cannot police runs as up to GOMAXPROCS
	// segments, goroutines whose charges sum back into the pass
	// (sim.Meter.JoinSerial), so results, staging contents and the virtual
	// clock are bit-for-bit reproducible at every GOMAXPROCS; only wall clock
	// depends on the host.
	//
	// Deprecated: ignored. It stays until the benchmark stops setting it
	// (ROADMAP item 1).
	Workers int
	// Session tags this middleware's batches with a fleet session id (> 0)
	// in traces and spans. Zero — a single-tenant build — emits exactly the
	// spans it always did.
	Session int

	// Ablation switches. Both default to off (= the paper's design) and
	// exist for the ablation experiments that quantify each design choice.

	// NoFilterPushdown disables §4.3.1's filter expressions: every server
	// scan transmits the whole table and the middleware filters received
	// rows itself. Trees produced are unchanged; only cost differs.
	NoFilterPushdown bool
	// FIFOScheduling disables Rule 3: eligible requests are admitted in
	// arrival order instead of by increasing estimated counts-table size.
	FIFOScheduling bool
}

// Request asks the middleware for the counts table of one active node.
// NodeID and ParentID are client-assigned; the middleware uses the parent
// chain to locate staged data an ancestor left behind.
type Request struct {
	NodeID   int
	ParentID int // -1 for the root
	// Path is the node's full path predicate (conjunction of edge
	// conditions from the root).
	Path predicate.Conj
	// Attrs lists the attribute indices still present at this node.
	Attrs []int
	// Rows is the node's exact data size, known from the parent's CC table
	// (§4.2.1); the root uses the table row count.
	Rows int64
	// EstCC is the estimated number of CC entries (cc.EstimateEntries).
	EstCC int64
}

// Result is one fulfilled request.
type Result struct {
	Req *Request
	// CC is the node's counts table. It belongs to the middleware: it is the
	// client's to read until CloseNode(Req.NodeID), and invalid after it —
	// the middleware counts a later node into the same table.
	CC *cc.Table
	// ViaSQL reports that the node was serviced by the SQL fallback path
	// (its counts table did not fit in middleware memory, §4.1.1).
	ViaSQL bool
	// Source describes where the data was read from ("server", "file",
	// "memory", "sql"), the S/I/L location tags of Figure 1.
	Source string
}

// Middleware is the scalable classification middleware. Create one with New,
// drive it with Enqueue / Step / CloseNode, and Close it to release staging
// files.
type Middleware struct {
	srv    *engine.Server
	meter  *sim.Meter
	schema *data.Schema
	cards  []int // schema.ColCards(): the size hint of every counts table
	cfg    Config

	queue   []*Request
	parent  map[int]int          // nodeID -> parentID
	sources map[int][]*stageData // nodeID -> stages covering that node's subtree
	open    map[int]*Result      // fulfilled but not yet closed nodes (CC memory charged)
	held    map[int]*Result      // closed nodes kept for their queued children (derive.go), in scratch 0's map

	files    *fileStore
	stageSeq int
	// ccHold is the memory charged for open (unconsumed) CC tables.
	ccHold int64
	// stagedMem is the memory charged for rows staged in middleware memory.
	stagedMem int64

	closed  bool
	freeErr error // the first error freeing a stage met; Close reports it

	// Storage recycled from batch to batch (pool.go).
	tables   []*cc.Table             // empty counts tables
	builders []*storage.GroupBuilder // idle staging tee builders
	spares   storage.Spares          // code vectors for the tees
	scratch  []*scanScratch          // per segment index, from the pool
	tags     *tagState               // from the pool at the first tagged batch
}

// New creates a middleware over the server.
func New(srv *engine.Server, cfg Config) (*Middleware, error) {
	if cfg.Threshold == 0 {
		cfg.Threshold = 0.5
	}
	if cfg.AuxThreshold == 0 {
		cfg.AuxThreshold = 0.10
	}
	if cfg.Memory < 0 {
		return nil, fmt.Errorf("mw: negative budget")
	}
	fs, err := newFileStore(cfg.Dir, srv.Meter(), srv.Schema())
	if err != nil {
		return nil, err
	}
	m := &Middleware{
		srv:     srv,
		meter:   srv.Meter(),
		schema:  srv.Schema(),
		cards:   srv.Schema().ColCards(),
		cfg:     cfg,
		parent:  make(map[int]int),
		sources: make(map[int][]*stageData),
		open:    make(map[int]*Result),
		files:   fs,
	}
	m.held = m.scratchAt(0).held
	return m, nil
}

// Close releases everything staged: every stage still live is freed — an
// abandoned build's server-side temp tables are dropped — and the middleware's
// private staging directory goes, with whatever was left in it. The counts
// tables of closed nodes and the scan scratch go to the process-wide pool
// (pool.go); the tables of nodes still open stay the client's. It returns the
// first error.
func (m *Middleware) Close() error {
	if m.closed {
		return nil
	}
	m.closed = true
	//repolint:ordered every live stage is freed, whatever the order
	for _, list := range m.sources {
		for _, sd := range slices.Clone(list) { // freeStage edits the lists
			m.freeStage(sd)
		}
	}
	if err := m.files.Close(); m.freeErr == nil {
		m.freeErr = err
	}
	//repolint:ordered every held table is recycled, whatever the order
	for _, h := range m.held {
		m.recycleTables(h.CC)
	}
	m.releaseToPool()
	return m.freeErr
}

// Meter returns the middleware's meter.
func (m *Middleware) Meter() *sim.Meter { return m.meter }

// Tracer returns the observability tracer attached to the backing engine
// (nil when tracing is disabled). The middleware and the client open their
// spans on the same tracer as the engine so the whole build shares one
// virtual-clock timeline.
func (m *Middleware) Tracer() *obs.Tracer { return m.srv.Tracer() }

// Schema returns the classification schema of the backing table.
func (m *Middleware) Schema() *data.Schema { return m.schema }

// DataRows returns the row count of the backing table (the root node's
// exact data size).
func (m *Middleware) DataRows() int64 { return m.srv.NumRows() }

// Pending returns the number of queued, unserviced requests.
func (m *Middleware) Pending() int { return len(m.queue) }

// Enqueue places requests on the request queue. Requests must have unique
// NodeIDs; a request's parent must be either -1 or a previously seen node.
func (m *Middleware) Enqueue(reqs ...*Request) error {
	for _, r := range reqs {
		if _, dup := m.parent[r.NodeID]; dup {
			return fmt.Errorf("mw: duplicate node id %d", r.NodeID)
		}
		if r.ParentID != -1 {
			if _, ok := m.parent[r.ParentID]; !ok {
				return fmt.Errorf("mw: node %d references unknown parent %d", r.NodeID, r.ParentID)
			}
		}
		m.parent[r.NodeID] = r.ParentID
		m.queue = append(m.queue, r)
		// Register the node with any ancestor staging sources so they
		// stay alive until the subtree is finished.
		for _, sd := range m.ancestorSources(r.NodeID) {
			sd.openNodes[r.NodeID] = true
		}
	}
	return nil
}

// CloseNode tells the middleware the client is done with a fulfilled node:
// its CC table memory is released and, once a staged data set has no open
// nodes left beneath it, the staged data is freed (the "flushing D out of
// memory and freeing up the resource" of §4.2.2). Children of the node must
// be enqueued before closing it, or ancestor staging may be freed too early —
// and the batch that counts them cannot derive one child's table from the
// others' (derive.go). The node's Result.CC goes back to the middleware, which
// reuses it: read everything needed from it first. While queued requests name
// the node as their parent, the middleware holds the table, unmodeled and
// outside the memory budget, until the batch that serves the first of them.
func (m *Middleware) CloseNode(nodeID int) {
	if res, ok := m.open[nodeID]; ok {
		m.ccHold -= res.CC.Bytes()
		delete(m.open, nodeID)
		m.hold(res)
	}
	for _, sd := range m.ancestorSources(nodeID) {
		delete(sd.openNodes, nodeID)
		if len(sd.openNodes) == 0 {
			m.freeStage(sd)
		}
	}
}

// ancestorSources returns the staged data sets registered at the node or any
// of its ancestors, nearest first (stages at the same node in creation
// order).
func (m *Middleware) ancestorSources(nodeID int) []*stageData {
	var out []*stageData
	seen := map[*stageData]bool{}
	id := nodeID
	for {
		for _, sd := range m.sources[id] {
			if !sd.freed && !seen[sd] {
				seen[sd] = true
				out = append(out, sd)
			}
		}
		p, ok := m.parent[id]
		if !ok || p == -1 {
			break
		}
		id = p
	}
	return out
}

// freeStage releases one staged data set: memory returns to the budget,
// files are deleted, server-side temp tables are dropped.
func (m *Middleware) freeStage(sd *stageData) {
	if sd.freed {
		return
	}
	sd.freed = true
	if sd.mem != nil {
		m.stagedMem -= sd.memBytes
		m.recycleGroups(sd.mem)
		sd.mem = nil
	}
	if sd.file != nil {
		m.files.remove(sd.file)
		sd.file = nil
	}
	if sd.subSrv != nil {
		if err := sd.subSrv.Drop(); m.freeErr == nil {
			m.freeErr = err
		}
		sd.subSrv = nil
	}
	sd.rows = nil
	for _, id := range sd.keyNodes {
		list := m.sources[id]
		out := list[:0]
		for _, s := range list {
			if s != sd {
				out = append(out, s)
			}
		}
		if len(out) == 0 {
			delete(m.sources, id)
		} else {
			m.sources[id] = out
		}
	}
}

// memBudgetLeft returns the memory remaining for CC tables after staged data
// and open CC tables, or a very large number when unlimited.
func (m *Middleware) memBudgetLeft() int64 {
	if m.cfg.Memory == 0 {
		return 1 << 62
	}
	left := m.cfg.Memory - m.stagedMem - m.ccHold
	if left < 0 {
		return 0
	}
	return left
}

// MemoryInUse returns the bytes currently charged against the middleware
// memory budget (staged rows plus open CC tables).
func (m *Middleware) MemoryInUse() int64 { return m.stagedMem + m.ccHold }

// FileBytesInUse returns the bytes of live middleware staging files.
func (m *Middleware) FileBytesInUse() int64 { return m.files.bytesInUse }

// sortByEstCC orders requests by increasing estimated counts-table size,
// breaking ties by NodeID for determinism (Rule 3).
func sortByEstCC(reqs []*Request) {
	sort.Slice(reqs, func(i, j int) bool {
		if reqs[i].EstCC != reqs[j].EstCC {
			return reqs[i].EstCC < reqs[j].EstCC
		}
		return reqs[i].NodeID < reqs[j].NodeID
	})
}

// sortByRowsDesc orders requests by decreasing data size, ties by NodeID
// (Rule 5).
func sortByRowsDesc(reqs []*Request) {
	sort.Slice(reqs, func(i, j int) bool {
		if reqs[i].Rows != reqs[j].Rows {
			return reqs[i].Rows > reqs[j].Rows
		}
		return reqs[i].NodeID < reqs[j].NodeID
	})
}

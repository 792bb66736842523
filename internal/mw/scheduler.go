package mw

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/cc"
	"repro/internal/predicate"
)

// sourceKind ranks data sources per Rule 1 of §4.2.2:
// in-memory scan > middleware file scan > server scan. Auxiliary server
// structures (§4.3.3) are server-scan alternatives and share its rank.
type sourceKind int

const (
	srcMemory sourceKind = iota
	srcFile
	srcServer
)

// name returns the source tier label used in results, events and spans.
func (k sourceKind) name() string {
	switch k {
	case srcMemory:
		return "memory"
	case srcFile:
		return "file"
	}
	return "server"
}

// batch is one scheduling decision: the set of requests to service in a
// single scan of one source.
type batch struct {
	kind     sourceKind
	stage    *stageData // the shared memory/file data set (nil for server)
	reqs     []*Request // admitted requests, in Rule 3 order
	fallback []*Request // requests whose CC tables cannot fit: SQL fallback
}

// resolve finds the best available source for a request per Rule 1: the
// nearest ancestor data set staged in memory, else the nearest staged file,
// else the server.
func (m *Middleware) resolve(r *Request) (sourceKind, *stageData) {
	var fileSD *stageData
	for _, sd := range m.ancestorSources(r.NodeID) {
		if sd.mem != nil {
			return srcMemory, sd
		}
		if sd.file != nil && fileSD == nil {
			fileSD = sd
		}
	}
	if fileSD != nil {
		return srcFile, fileSD
	}
	return srcServer, nil
}

// schedule applies Rules 1–3 to the request queue and returns the next
// batch, removing its requests from the queue. It returns nil when the queue
// is empty. When not even the smallest counts table fits in the remaining
// memory, staged in-memory data (which is merely an optimization and can be
// re-read from its file or the server) is evicted first; the SQL fallback is
// reserved for counts tables that genuinely exceed the budget.
func (m *Middleware) schedule() *batch {
	for {
		b := m.scheduleOnce()
		if b == nil || len(b.reqs) > 0 || len(b.fallback) == 0 {
			return b
		}
		// Nothing was admitted. Try to reclaim memory from staged data and
		// re-plan; otherwise accept the SQL fallback.
		if !m.evictMemoryStage() {
			return b
		}
		// Re-queue the fallback request and re-plan with the freed memory.
		m.queue = append(m.queue, b.fallback...)
	}
}

// evictMemoryStage frees the largest data set staged in memory. It reports
// whether anything was evicted.
func (m *Middleware) evictMemoryStage() bool { return m.evictMemoryStageExcept(nil) }

// evictMemoryStageExcept is evictMemoryStage sparing one stage (the data set
// a scan is currently reading from).
func (m *Middleware) evictMemoryStageExcept(except *stageData) bool {
	var victim *stageData
	seen := map[*stageData]bool{}
	//repolint:ordered victim selection is a total order (max memBytes, min seq tie-break), so the same stage wins in any iteration order
	for _, list := range m.sources {
		for _, sd := range list {
			if sd.freed || sd.mem == nil || seen[sd] || sd == except {
				continue
			}
			seen[sd] = true
			if victim == nil || sd.memBytes > victim.memBytes ||
				(sd.memBytes == victim.memBytes && sd.seq < victim.seq) {
				victim = sd
			}
		}
	}
	if victim == nil {
		return false
	}
	m.freeStage(victim)
	return true
}

// scheduleOnce applies Rules 1–3 once against the current memory state.
func (m *Middleware) scheduleOnce() *batch {
	if len(m.queue) == 0 {
		return nil
	}

	// Partition the queue by resolved source.
	type group struct {
		kind  sourceKind
		stage *stageData
		reqs  []*Request
	}
	groups := map[*stageData]*group{}
	var serverGroup *group
	for _, r := range m.queue {
		kind, sd := m.resolve(r)
		if kind == srcServer {
			if serverGroup == nil {
				serverGroup = &group{kind: srcServer}
			}
			serverGroup.reqs = append(serverGroup.reqs, r)
			continue
		}
		g, ok := groups[sd]
		if !ok {
			g = &group{kind: kind, stage: sd}
			groups[sd] = g
		}
		g.reqs = append(g.reqs, r)
	}

	// Rule 1: memory groups first, then file groups, then the server.
	// Among same-kind groups pick deterministically by stage sequence.
	var chosen *group
	var staged []*group
	for _, g := range groups {
		staged = append(staged, g)
	}
	sort.Slice(staged, func(i, j int) bool {
		if staged[i].kind != staged[j].kind {
			return staged[i].kind < staged[j].kind
		}
		return staged[i].stage.seq < staged[j].stage.seq
	})
	if len(staged) > 0 {
		chosen = staged[0]
	} else {
		chosen = serverGroup
	}

	// Rule 3: order eligible nodes by increasing estimated CC size and
	// admit while the memory budget holds (FIFO under the ablation).
	if !m.cfg.FIFOScheduling {
		sortByEstCC(chosen.reqs)
	}
	b := &batch{kind: chosen.kind, stage: chosen.stage}
	budget := m.memBudgetLeft()
	var reserved int64
	for _, r := range chosen.reqs {
		if m.cfg.MaxBatch > 0 && len(b.reqs) >= m.cfg.MaxBatch {
			break
		}
		need := r.EstCC * cc.EntryBytes
		if need <= budget-reserved {
			b.reqs = append(b.reqs, r)
			reserved += need
			continue
		}
		// The smallest remaining estimate no longer fits; later ones are
		// larger (sorted), so stop admitting.
		break
	}
	if len(b.reqs) == 0 {
		// Not even the smallest CC table fits in middleware memory:
		// service that node with the server-side SQL fallback (§4.1.1).
		b.fallback = append(b.fallback, chosen.reqs[0])
	}

	// Remove scheduled requests from the queue.
	taken := make(map[*Request]bool, len(b.reqs)+len(b.fallback))
	for _, r := range b.reqs {
		taken[r] = true
	}
	for _, r := range b.fallback {
		taken[r] = true
	}
	rest := m.queue[:0]
	for _, r := range m.queue {
		if !taken[r] {
			rest = append(rest, r)
		}
	}
	m.queue = rest
	return b
}

// stagePlan describes the staging decisions (Rules 4–6) for one batch: tee
// destinations to fill during the scan.
type stagePlan struct {
	// fileTees are new staging files to write during the scan, each
	// covering a subset of the batch's nodes.
	fileTees []*teePlan
	// memTees are nodes whose matching rows are loaded into middleware
	// memory during the scan.
	memTees []*teePlan
}

// teePlan is one staging destination: the rows of request node's bucket are
// copied — node indexes the batch's requests, its slot in the scan's paths —
// or, for a tee over the whole batch (node -1), every row the scan selects;
// the resulting stage is registered under keyNodes.
type teePlan struct {
	node     int
	keyNodes []int
	rows     int64 // expected rows (for budgeting)
	writer   *fileWriter
	mem      teeRun // a memory tee's settled capture
}

// planStaging applies Rules 4–6 to the admitted batch. Only data for nodes
// picked by the priority scheme qualifies (Rule 4); nodes are considered in
// decreasing data size (Rule 5); caching to file precedes caching to memory
// (Rule 6).
func (m *Middleware) planStaging(b *batch) *stagePlan {
	p := &stagePlan{}
	if len(b.reqs) == 0 {
		return p
	}
	fileAllowed := m.cfg.Staging == StageFileOnly || m.cfg.Staging == StageFileAndMemory
	memAllowed := m.cfg.Staging == StageMemoryOnly || m.cfg.Staging == StageFileAndMemory

	switch b.kind {
	case srcServer:
		if fileAllowed {
			m.planFileStaging(b, p)
		}
		// Rule 6: when file staging is enabled data moves server -> file
		// first and file -> memory on a later scan; direct server -> memory
		// staging applies only in memory-only mode.
		if memAllowed && m.cfg.Staging == StageMemoryOnly {
			m.planMemStaging(b, p)
		}
	case srcFile:
		if fileAllowed {
			m.planFileSplit(b, p)
		}
		if memAllowed {
			m.planMemStaging(b, p)
		}
	case srcMemory:
		// Already at the fastest tier; nothing to stage.
	}
	return p
}

// batchRows returns the total data size of the batch's nodes.
func batchRows(reqs []*Request) int64 {
	var n int64
	for _, r := range reqs {
		n += r.Rows
	}
	return n
}

// batchFilter builds the OR filter expression over the batch's node paths
// (§4.3.1).
func batchFilter(reqs []*Request) predicate.Filter {
	conjs := make([]predicate.Conj, len(reqs))
	for i, r := range reqs {
		conjs[i] = r.Path
	}
	return predicate.Or(conjs...)
}

// batchTee is a tee over the whole batch: it keeps every row the scan selects.
func batchTee(b *batch) *teePlan {
	return &teePlan{node: -1, keyNodes: nodeIDs(b.reqs), rows: batchRows(b.reqs)}
}

// nodeTee is a tee of request r of the batch alone: it keeps r's bucket.
func nodeTee(b *batch, r *Request) *teePlan {
	return &teePlan{node: slices.Index(b.reqs, r), keyNodes: []int{r.NodeID}, rows: r.Rows}
}

// nodeIDs lists the batch's node ids.
func nodeIDs(reqs []*Request) []int {
	ids := make([]int, len(reqs))
	for i, r := range reqs {
		ids[i] = r.NodeID
	}
	return ids
}

// planFileStaging plans server -> file staging for a server-sourced batch.
func (m *Middleware) planFileStaging(b *batch, p *stagePlan) {
	switch m.cfg.FilePolicy {
	case FileSingleton:
		// One staging file for the entire tree: create it on the first
		// server scan only (if any staged file already exists, requests
		// would have resolved to it; reaching here with existing files
		// means those nodes fall outside them, which the singleton policy
		// ignores).
		if m.files.seq > 0 {
			return
		}
		p.fileTees = append(p.fileTees, batchTee(b))
	case FilePerNode:
		// A new staging file for every node serviced (configuration 1).
		reqs := append([]*Request(nil), b.reqs...)
		sortByRowsDesc(reqs)
		for _, r := range reqs {
			p.fileTees = append(p.fileTees, nodeTee(b, r))
		}
	case FileSplitThreshold:
		// Create one covering file for the batch on the first server scan
		// (the root scan needs the whole table anyway); afterwards the
		// splitting happens on file scans (planFileSplit).
		p.fileTees = append(p.fileTees, batchTee(b))
	}
}

// planFileSplit plans file splitting while scanning an existing staged file
// (§4.3.2): when the fraction of the file's rows used by the current batch
// drops below the threshold, a new smaller file is written for the batch.
func (m *Middleware) planFileSplit(b *batch, p *stagePlan) {
	sf := b.stage.file
	if sf == nil || sf.rows == 0 {
		return
	}
	switch m.cfg.FilePolicy {
	case FileSingleton:
		return // never split
	case FilePerNode:
		reqs := append([]*Request(nil), b.reqs...)
		sortByRowsDesc(reqs)
		for _, r := range reqs {
			p.fileTees = append(p.fileTees, nodeTee(b, r))
		}
	case FileSplitThreshold:
		frac := float64(batchRows(b.reqs)) / float64(sf.rows)
		if frac >= m.cfg.Threshold {
			return
		}
		p.fileTees = append(p.fileTees, batchTee(b))
	}
}

// planMemStaging plans loading node data into middleware memory: nodes in
// decreasing data size, each admitted if it fits in the memory left after
// the batch's CC reservations (Rules 4–5).
func (m *Middleware) planMemStaging(b *batch, p *stagePlan) {
	var reservedCC int64
	for _, r := range b.reqs {
		reservedCC += r.EstCC * cc.EntryBytes
	}
	avail := m.memBudgetLeft() - reservedCC
	rowBytes := int64(m.schema.RowBytes()) + memRowOverhead
	reqs := append([]*Request(nil), b.reqs...)
	sortByRowsDesc(reqs)
	for _, r := range reqs {
		need := r.Rows * rowBytes
		if need > avail {
			continue
		}
		avail -= need
		p.memTees = append(p.memTees, nodeTee(b, r))
	}
}

// memRowOverhead is the accounted per-row overhead (slice header etc.) of a
// row staged in middleware memory.
const memRowOverhead = 24

// auxFor returns the live auxiliary server structure covering the request
// (§4.3.3), or nil.
func (m *Middleware) auxFor(r *Request) *stageData {
	for _, sd := range m.ancestorSources(r.NodeID) {
		if sd.rows != nil || sd.subSrv != nil {
			return sd
		}
	}
	return nil
}

// maybeBuildAux builds the configured auxiliary structure for a
// server-sourced batch once the relevant fraction of the data drops below
// AuxThreshold (§4.3.3: "this technique applies only when the relevant data
// set has shrunk to a small percentage of the given file (around 10%)"), or
// returns the live one covering the batch; nil when the batch scans the base
// table. The build's qualifying scan checks ctx per block: a cancelled build
// frees its stage and returns ctx.Err() (wrapped, for a copy-table).
func (m *Middleware) maybeBuildAux(ctx context.Context, b *batch) (*stageData, error) {
	if m.cfg.Access == AccessScan || len(b.reqs) == 0 {
		return nil, nil
	}
	// Reuse a live structure covering every batch node.
	var shared *stageData
	for i, r := range b.reqs {
		sd := m.auxFor(r)
		if sd == nil || (i > 0 && sd != shared) {
			shared = nil
			break
		}
		shared = sd
	}
	if shared != nil {
		return shared, nil
	}
	total := m.srv.NumRows()
	if total == 0 || float64(batchRows(b.reqs))/float64(total) >= m.cfg.AuxThreshold {
		return nil, nil
	}
	filter := batchFilter(b.reqs)
	sd := m.newStage(nodeIDs(b.reqs))
	var err error
	switch m.cfg.Access {
	case AccessKeyset:
		sd.rows, err = m.srv.OpenKeyset(ctx, filter)
	case AccessTIDJoin:
		sd.rows, err = m.srv.CopyTIDs(ctx, filter)
	case AccessCopyTable:
		if sd.subSrv, err = m.srv.CopySubset(ctx, filter); err != nil {
			err = fmt.Errorf("mw: copy-table: %w", err)
		}
	}
	if err != nil {
		m.freeStage(sd)
		return nil, err
	}
	return sd, nil
}

// newStage registers a new stage covering — and kept alive by — keyNodes. The
// caller attaches the data.
func (m *Middleware) newStage(keyNodes []int) *stageData {
	sd := &stageData{seq: m.nextStageSeq(), keyNodes: keyNodes, openNodes: map[int]bool{}}
	for _, id := range keyNodes {
		sd.openNodes[id] = true
		m.sources[id] = append(m.sources[id], sd)
	}
	return sd
}

// nextStageSeq issues stage sequence numbers for deterministic tie-breaks.
func (m *Middleware) nextStageSeq() int {
	m.stageSeq++
	return m.stageSeq
}

package dtree

import (
	"fmt"

	"repro/internal/cc"
	"repro/internal/mw"
	"repro/internal/obs"
)

// Builder is the resumable form of Build: the same Figure 3 protocol, but
// with the Step loop inverted so an external scheduler owns it. The
// multi-tenant fleet drives many Builders over one engine — each session
// feeds its own middleware's results in as they arrive (possibly produced by
// a shared scan) and the Builder grows its tree incrementally. Build is a
// thin wrapper, so the two paths execute identical span and enqueue
// sequences and produce byte-identical trees and traces.
type Builder struct {
	m         *mw.Middleware
	opt       Options
	classCard int
	classIdx  int

	bsp *obs.Span

	root   *Node
	nodes  map[int]*Node
	nextID int
}

// NewBuilder opens the build (its build span) and enqueues the root
// request. The caller must then repeatedly Feed the middleware's results
// until Pending reaches zero, and Finish. After any error from Feed or from
// the caller's Step loop, Abort ends the build span; an error from NewBuilder
// itself leaves nothing open.
func NewBuilder(m *mw.Middleware, opt Options) (*Builder, error) {
	schema := m.Schema()
	b := &Builder{
		m:         m,
		opt:       opt,
		classCard: schema.Class.Card,
		classIdx:  schema.ClassIndex(),
		nextID:    1,
	}

	// One client-side span for the whole build; the levels are on its batch
	// spans. A nil tracer makes it a no-op.
	b.bsp = m.Tracer().Start(obs.CatBuild, "dtree-build")

	rootAttrs := allAttrs(schema)
	b.root = &Node{ID: 0, Attrs: rootAttrs, Rows: m.DataRows(), Depth: 0}
	b.nodes = map[int]*Node{0: b.root}

	// The root's CC size estimate comes from the schema (no parent exists):
	// the sum of attribute cardinalities times the class cardinality.
	var rootEst int64
	for _, a := range schema.Attrs {
		rootEst += int64(a.Card)
	}
	rootEst = rootEst*int64(b.classCard) + int64(b.classCard)
	if err := m.Enqueue(&mw.Request{
		NodeID: 0, ParentID: -1, Path: nil,
		Attrs: rootAttrs, Rows: b.root.Rows, EstCC: rootEst,
	}); err != nil {
		b.bsp.End()
		return nil, err
	}
	return b, nil
}

// Pending returns the number of outstanding middleware requests; the build
// is complete when it reaches zero.
func (b *Builder) Pending() int { return b.m.Pending() }

// Feed consumes one Step's worth of middleware results: grows the tree at
// each fulfilled node (grow), enqueues the children that need counting, and
// closes the fulfilled nodes. An empty result set with requests still pending is
// the no-progress error, exactly as in Build's loop. After an error the caller
// must Abort.
func (b *Builder) Feed(results []*mw.Result) error {
	if len(results) == 0 && b.m.Pending() > 0 {
		return fmt.Errorf("dtree: middleware made no progress with %d pending requests", b.m.Pending())
	}
	for _, res := range results {
		n, ok := b.nodes[res.Req.NodeID]
		if !ok {
			return fmt.Errorf("dtree: result for unknown node %d", res.Req.NodeID)
		}
		for _, child := range grow(n, res.CC, b.classIdx, b.classCard, b.opt, &b.nextID) {
			b.nodes[child.ID] = child
			est := cc.EstimateEntries(res.CC, child.Attrs, child.Rows, n.Rows, b.classCard)
			if err := b.m.Enqueue(&mw.Request{
				NodeID: child.ID, ParentID: n.ID,
				Path: child.Path, Attrs: child.Attrs,
				Rows: child.Rows, EstCC: est,
			}); err != nil {
				return err
			}
		}
		// Children are enqueued before the parent closes so ancestor
		// staging stays alive for them.
		b.m.CloseNode(n.ID)
	}
	return nil
}

// Finish ends the build's spans and returns the completed tree.
func (b *Builder) Finish() (*Tree, error) {
	if b.m.Pending() > 0 {
		return nil, fmt.Errorf("dtree: Finish with %d requests still pending", b.m.Pending())
	}
	b.bsp.End()
	return finalize(&Tree{Root: b.root, Schema: b.m.Schema()}), nil
}

// Abort ends the build span without producing a tree: the one release after
// any error from Feed or the caller's Step loop. Span.End is idempotent.
func (b *Builder) Abort() { b.bsp.End() }

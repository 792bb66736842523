package mw

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/storage"
)

// stageData is data staged for the subtrees of one or more nodes
// (keyNodes), in exactly one place: an ordered run of row groups in a
// middleware file or in middleware memory, or an auxiliary server-side
// structure (§4.3.3). It stays alive while any node in the covered subtrees
// may still need it (openNodes) and is freed afterwards.
type stageData struct {
	seq       int   // creation order, for deterministic scheduling ties
	keyNodes  []int // nodes whose subtrees this stage covers
	openNodes map[int]bool
	freed     bool

	mem      []*storage.ColGroup // non-nil (possibly empty) while the stage is in memory
	memBytes int64
	tags     []uint32 // a memory stage's: per row, in stage order, its tag (tagState)

	file *stageFile

	// Auxiliary server structures (§4.3.3), used by the non-default
	// ServerAccess modes: a keyset or TID table, or a copy-table.
	rows   *engine.RowSet
	subSrv *engine.Server
}

// stageFile is one middleware staging file: the row groups' code vectors, one
// group after the other (storage.ColGroup.AppendCodes). groups indexes them and
// keeps each one's zone — row count, dictionaries, counts: the file holds none
// of them — in memory, so planning a scan of the file reads nothing. The rows'
// tags stay in memory too, beside the zones: the file's format has none.
type stageFile struct {
	path   string
	rows   int64
	bytes  int64 // modeled: rows × the schema's row width, the unit of file_used_bytes
	groups []fileGroup
	tags   []uint32 // per row, in file order, its tag (tagState)
}

type fileGroup struct {
	off  int64
	size int
	zone *storage.ColGroup
}

// stageCharge is what both kinds of stage source share: what reading a group
// costs — one per-row charge on the scan's meter, in place of everything a
// server scan pays — and where a group starts among the stage's rows.
type stageCharge struct {
	ctr    sim.Counter
	perRow int64
}

func (c stageCharge) AtServer() (engine.RowPrices, bool) { return engine.RowPrices{}, false }
func (c stageCharge) Sel(int) ([]int32, bool)            { return nil, false }

// memGroups is a stage in memory as a scan source.
type memGroups struct {
	stageCharge
	groups []*storage.ColGroup
}

func (s memGroups) NumGroups() int                         { return len(s.groups) }
func (s memGroups) Zone(gi int) *storage.ColGroup          { return s.groups[gi] }
func (s memGroups) Read(gi int) (*storage.ColGroup, error) { return s.groups[gi], nil }
func (s memGroups) ChargeRead(gi int, m *sim.Meter) {
	m.Charge(s.ctr, s.perRow, int64(s.groups[gi].NumRows()))
}

// FirstRow is where a stage's group starts among its rows: a stage's groups
// are a tee builder's, each but the last holding BlockRows rows.
func (stageCharge) FirstRow(gi int) int { return gi * engine.BlockRows }

// fileGroups is a staging file as a scan source. Planning needs only the zones;
// a segment that reads groups opens the file on its first Read, decodes every
// group into the one buffer — a group it returns is valid until the next Read —
// and must close the source.
type fileGroups struct {
	stageCharge
	sf  *stageFile
	f   *os.File
	buf *groupBuf
}

// groupBuf is a segment's read buffer (scanScratch.buf): the last group read, as
// on disk and decoded.
type groupBuf struct {
	raw []byte
	g   storage.ColGroup
}

func (s *fileGroups) NumGroups() int                { return len(s.sf.groups) }
func (s *fileGroups) Zone(gi int) *storage.ColGroup { return s.sf.groups[gi].zone }
func (s *fileGroups) ChargeRead(gi int, m *sim.Meter) {
	m.Charge(s.ctr, s.perRow, int64(s.sf.groups[gi].zone.NumRows()))
}

func (s *fileGroups) Read(gi int) (*storage.ColGroup, error) {
	if s.f == nil {
		f, err := os.Open(s.sf.path)
		if err != nil {
			return nil, fmt.Errorf("mw: open staging file: %w", err)
		}
		s.f = f
	}
	fg := &s.sf.groups[gi]
	raw := slices.Grow(s.buf.raw[:0], fg.size)[:fg.size]
	s.buf.raw = raw
	if _, err := s.f.ReadAt(raw, fg.off); err != nil {
		return nil, fmt.Errorf("mw: read staging file: %w", err)
	}
	g, err := fg.zone.DecodeCodes(raw, &s.buf.g)
	if err != nil {
		return nil, fmt.Errorf("mw: read staging file: %w", err)
	}
	return g, nil
}

// close releases the file, if a Read opened it (a nil *os.File closes to an error).
func (s *fileGroups) close() { s.f.Close() }

// fileStore manages the middleware's staging files: real files in a private
// directory, with all reads and writes metered.
type fileStore struct {
	dir        string
	meter      *sim.Meter
	schema     *data.Schema
	bytesInUse int64
	live       int // staging files currently registered
	seq        int
	wbuf       []byte // the writers' serialization buffer: only one goroutine writes at a time

	// Test seams for fault injection, always nil in production: createErr
	// runs before a new staging file is opened (seq is the would-be file
	// sequence number), finishErr before a writer's file is closed. They let
	// regression tests fail a specific create/Finish mid-batch and assert
	// that no writer or on-disk file leaks.
	createErr func(seq int) error
	finishErr func(path string) error
}

// newFileStore creates the store's private directory inside dir (the OS temp
// dir when empty): two middlewares given the same Dir never see each other's
// files, and Close leaves the caller's directory as it found it.
func newFileStore(dir string, meter *sim.Meter, schema *data.Schema) (*fileStore, error) {
	d, err := os.MkdirTemp(dir, "mwstage-")
	if err != nil {
		return nil, fmt.Errorf("mw: create staging dir: %w", err)
	}
	return &fileStore{dir: d, meter: meter, schema: schema}, nil
}

// Close removes the staging directory and whatever an unfinished build left
// in it.
func (fs *fileStore) Close() error { return os.RemoveAll(fs.dir) }

// source returns sf as a scan source reading into buf — a segment's own, when
// it is to be read; nil when it is only planned by.
func (fs *fileStore) source(sf *stageFile, buf *groupBuf) *fileGroups {
	return &fileGroups{stageCharge: stageCharge{sim.CtrFileRowsRead, fs.meter.Costs().FileRowRead}, sf: sf, buf: buf}
}

// fileWriter appends row groups to a new staging file.
type fileWriter struct {
	fs  *fileStore
	f   *os.File
	sf  *stageFile
	err error
}

// create opens a new staging file, charging the file-open cost.
func (fs *fileStore) create() (*fileWriter, error) {
	fs.seq++
	if fs.createErr != nil {
		if err := fs.createErr(fs.seq); err != nil {
			return nil, err
		}
	}
	path := filepath.Join(fs.dir, fmt.Sprintf("stage%06d.cols", fs.seq))
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("mw: create staging file: %w", err)
	}
	fs.meter.Charge(sim.CtrFilesCreated, fs.meter.Costs().FileOpen, 1)
	return &fileWriter{fs: fs, f: f, sf: &stageFile{path: path}}, nil
}

// writeGroup appends one group (nil: none). The pass that captured its rows
// charged their write cost as it captured them, so this is purely the physical
// append.
func (fw *fileWriter) writeGroup(g *storage.ColGroup) {
	if fw.err != nil || g == nil {
		return
	}
	buf := g.AppendCodes(fw.fs.wbuf[:0])
	fw.fs.wbuf = buf
	if _, fw.err = fw.f.Write(buf); fw.err != nil {
		return
	}
	sf, off := fw.sf, int64(0)
	if n := len(sf.groups); n > 0 {
		off = sf.groups[n-1].off + int64(sf.groups[n-1].size)
	}
	sf.groups = append(sf.groups, fileGroup{off: off, size: len(buf), zone: g.Zone()})
	sf.rows += int64(g.NumRows())
	sf.bytes = sf.rows * int64(fw.fs.schema.RowBytes())
}

// Finish closes and registers the file, returning it.
func (fw *fileWriter) Finish() (*stageFile, error) {
	if fw.err == nil && fw.fs.finishErr != nil {
		fw.err = fw.fs.finishErr(fw.sf.path)
	}
	if cerr := fw.f.Close(); fw.err == nil {
		fw.err = cerr
	}
	if fw.err != nil {
		os.Remove(fw.sf.path)
		return nil, fmt.Errorf("mw: write staging file: %w", fw.err)
	}
	fw.fs.bytesInUse += fw.sf.bytes
	fw.fs.live++
	return fw.sf, nil
}

// Abort discards a partially written file.
func (fw *fileWriter) Abort() {
	fw.f.Close()
	os.Remove(fw.sf.path)
}

// remove deletes a staging file and returns its space to the budget.
func (fs *fileStore) remove(sf *stageFile) {
	os.Remove(sf.path)
	fs.bytesInUse -= sf.bytes
	fs.live--
}

package mw

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/sim"
)

// stageData is data staged for the subtrees of one or more nodes
// (keyNodes): rows in a middleware file, in middleware memory, or an
// auxiliary server-side structure (§4.3.3). It stays alive while any node in
// the covered subtrees may still need it (openNodes) and is freed afterwards.
type stageData struct {
	seq       int   // creation order, for deterministic scheduling ties
	nodeID    int   // primary label (first covered node)
	keyNodes  []int // nodes whose subtrees this stage covers
	rows      int64 // rows captured in the stage
	openNodes map[int]bool
	freed     bool

	mem      []data.Row
	memBytes int64

	file *stageFile

	// Auxiliary server structures (§4.3.3), used by the non-default
	// ServerAccess modes.
	keyset *engine.Keyset
	tidTab *engine.TIDTable
	subSrv *engine.Server
}

// stageFile is one middleware staging file of binary-encoded rows. stats
// carries per-bucket value histograms collected while the file was written
// (buckets are contiguous row runs), which later batches over the file use
// to choose skew-aware partition boundaries.
type stageFile struct {
	path  string
	rows  int64
	bytes int64
	stats *engine.ValueStats
}

// fileStore manages the middleware's staging files: real files in a private
// directory, with all reads and writes metered.
type fileStore struct {
	dir        string
	ownsDir    bool
	meter      *sim.Meter
	schema     *data.Schema
	budget     int64 // 0 = unlimited
	bytesInUse int64
	live       int // staging files currently registered
	seq        int

	// Test seams for fault injection, always nil in production: createErr
	// runs before a new staging file is opened (seq is the would-be file
	// sequence number), finishErr before a writer's final flush. They let
	// regression tests fail a specific create/Finish mid-batch and assert
	// that no writer or on-disk file leaks.
	createErr func(seq int) error
	finishErr func(path string) error
}

func newFileStore(dir string, meter *sim.Meter, schema *data.Schema, budget int64) (*fileStore, error) {
	owns := false
	if dir == "" {
		d, err := os.MkdirTemp("", "mwstage-")
		if err != nil {
			return nil, fmt.Errorf("mw: create staging dir: %w", err)
		}
		dir = d
		owns = true
	}
	return &fileStore{dir: dir, ownsDir: owns, meter: meter, schema: schema, budget: budget}, nil
}

// Close removes the staging directory if the store created it.
func (fs *fileStore) Close() error {
	if fs.ownsDir {
		return os.RemoveAll(fs.dir)
	}
	return nil
}

// hasRoomFor reports whether a file of approximately rows fits the budget.
func (fs *fileStore) hasRoomFor(rows int64) bool {
	if fs.budget == 0 {
		return true
	}
	need := rows * int64(fs.schema.RowBytes())
	return fs.bytesInUse+need <= fs.budget
}

// fileWriter streams rows into a new staging file.
type fileWriter struct {
	fs    *fileStore
	f     *os.File
	w     *bufio.Writer
	sf    *stageFile
	buf   []byte
	stats *engine.ValueStats
	err   error
}

// statsRowsPerBucket is the bucket granularity of staging-file statistics:
// the file analogue of a heap page, sized so one bucket covers about one
// page worth of rows.
func (fs *fileStore) statsRowsPerBucket() int64 {
	rb := fs.schema.RowBytes()
	if rb <= 0 {
		return 1
	}
	n := int64(8192 / rb)
	if n < 1 {
		n = 1
	}
	return n
}

// newStats creates an empty value-statistics sketch with the store's bucket
// granularity (used both by writers and by parallel scan workers whose
// shard stats are appended to a writer afterwards).
func (fs *fileStore) newStats() *engine.ValueStats {
	return engine.NewValueStats(fs.schema.NumCols(), fs.statsRowsPerBucket())
}

// create opens a new staging file, charging the file-open cost.
func (fs *fileStore) create() (*fileWriter, error) {
	fs.seq++
	if fs.createErr != nil {
		if err := fs.createErr(fs.seq); err != nil {
			return nil, err
		}
	}
	path := filepath.Join(fs.dir, fmt.Sprintf("stage%06d.rows", fs.seq))
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("mw: create staging file: %w", err)
	}
	fs.meter.Charge(sim.CtrFilesCreated, fs.meter.Costs().FileOpen, 1)
	return &fileWriter{
		fs:    fs,
		f:     f,
		w:     bufio.NewWriterSize(f, 1<<16),
		sf:    &stageFile{path: path},
		stats: fs.newStats(),
	}, nil
}

// writeRow appends one row as it is captured: lane 0 of a scan streams its
// tee rows through here. The capturing lane charges the per-row write cost.
func (fw *fileWriter) writeRow(r data.Row) {
	fw.buf = r.Encode(fw.buf[:0])
	fw.writeEncoded(fw.buf, 1)
	fw.stats.Note(r)
}

// Finish flushes and registers the file, returning it.
func (fw *fileWriter) Finish() (*stageFile, error) {
	if fw.err == nil && fw.fs.finishErr != nil {
		fw.err = fw.fs.finishErr(fw.sf.path)
	}
	if fw.err == nil {
		fw.err = fw.w.Flush()
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
	fw.sf.stats = fw.stats
	return fw.sf, nil
}

// Abort discards a partially written file.
func (fw *fileWriter) Abort() {
	fw.w.Flush()
	fw.f.Close()
	os.Remove(fw.sf.path)
}

// writeEncoded appends pre-encoded rows collected by a scan worker. The
// per-row write costs are charged to the worker's lane meter, so this is
// purely the physical append.
func (fw *fileWriter) writeEncoded(buf []byte, rows int64) {
	if fw.err != nil || len(buf) == 0 {
		return
	}
	if _, err := fw.w.Write(buf); err != nil {
		fw.err = err
		return
	}
	fw.sf.rows += rows
	fw.sf.bytes += int64(len(buf))
}

// appendStats concatenates a scan worker's shard statistics after the
// writer's, in the same order writeEncoded appended the rows, keeping the
// bucket sequence aligned with the file's physical row order.
func (fw *fileWriter) appendStats(vs *engine.ValueStats) {
	fw.stats.Append(vs)
}

// scanRange reads the file's rows [lo, hi) in order — one lane's share, with
// boundaries typically chosen by the histogram-guided split — charging the
// per-row file read cost to meter and calling fn, which must not retain the
// row. The read is not spanned here: the lane's span covers it.
func (fs *fileStore) scanRange(sf *stageFile, lo, hi int64, meter *sim.Meter, fn func(data.Row) error) error {
	if lo < 0 || hi < lo || hi > sf.rows {
		return fmt.Errorf("mw: invalid staging-file range [%d, %d) of %d rows", lo, hi, sf.rows)
	}
	if lo >= hi {
		return nil
	}
	f, err := os.Open(sf.path)
	if err != nil {
		return fmt.Errorf("mw: open staging file: %w", err)
	}
	defer f.Close()
	rb := fs.schema.RowBytes()
	if lo > 0 {
		if _, err := f.Seek(lo*int64(rb), io.SeekStart); err != nil {
			return fmt.Errorf("mw: seek staging file: %w", err)
		}
	}
	r := bufio.NewReaderSize(f, 1<<16)
	ncols := fs.schema.NumCols()
	buf := make([]byte, rb)
	var row data.Row
	cost := meter.Costs().FileRowRead
	for n := lo; n < hi; n++ {
		if _, err := io.ReadFull(r, buf); err != nil {
			return fmt.Errorf("mw: read staging file: %w", err)
		}
		row = data.DecodeRow(buf, ncols, row)
		meter.Charge(sim.CtrFileRowsRead, cost, 1)
		if err := fn(row); err != nil {
			return err
		}
	}
	return nil
}

// remove deletes a staging file and returns its space to the budget.
func (fs *fileStore) remove(sf *stageFile) {
	os.Remove(sf.path)
	fs.bytesInUse -= sf.bytes
	fs.live--
}

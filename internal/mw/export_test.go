package mw

import (
	"fmt"
	"reflect"
	"slices"
	"strings"

	"repro/internal/cc"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/predicate"
)

// OpenTables returns, by node id, the counts tables of the nodes fulfilled and
// not yet closed.
func OpenTables(m *Middleware) map[int]*cc.Table {
	out := make(map[int]*cc.Table, len(m.open))
	for id, res := range m.open {
		out[id] = res.CC
	}
	return out
}

// SegmentRuns returns how many passes, process-wide, have run as more than one
// segment.
func SegmentRuns() int64 { return segmentRuns.Load() }

// SetTagsOff makes every later scan walk its rows from the root (off) or by
// their tags, and returns the setting it replaced.
func SetTagsOff(off bool) bool {
	prev := tagsOff
	tagsOff = off
	return prev
}

// TaggedScans returns how many batches, process-wide, reading source
// ("server", "file" or "memory"; "" for any) have walked their rows by their
// tags.
func TaggedScans(source string) int64 {
	var n int64
	for k := range taggedScans {
		if source == "" || source == sourceKind(k).name() {
			n += taggedScans[k].Load()
		}
	}
	return n
}

// PairRows returns how many rows, process-wide, tagged scans have bucketed by a
// pair select.
func PairRows() int64 { return pairRows.Load() }

// FoldCalls returns how many histograms, process-wide, the counting kernel has
// folded into a counts table (cc.Table.Fold calls).
func FoldCalls() int64 { return foldCalls.Load() }

// TeesDropped returns how many memory tees, process-wide, a scan's budget has
// dropped, mid-scan or once the pass settled.
func TeesDropped() int64 { return teesDropped.Load() }

// StageTagRows checks the tags of every row of every live stage of m, in a
// file or in memory: a stage holds one tag per row, and each is a registered
// tag whose path its row satisfies. It returns how many rows it checked. Rows
// are located by counting the groups' rows, not through the source's
// FirstRow, so a wrong index shows as a row its tag does not fit.
func StageTagRows(m *Middleware) (int64, error) {
	var checked int64
	seen := map[*stageData]bool{}
	ids := make([]int, 0, len(m.sources))
	for id := range m.sources {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		for _, sd := range m.sources[id] {
			if sd.freed || seen[sd] || (sd.mem == nil && sd.file == nil) {
				continue
			}
			seen[sd] = true
			var src engine.GroupSource
			tags := sd.tags
			if sd.mem != nil {
				src = memGroups{groups: sd.mem}
			} else {
				fsrc := m.files.source(sd.file, &groupBuf{})
				defer fsrc.close()
				src, tags = fsrc, sd.file.tags
			}
			first := 0
			for gi := range src.NumGroups() {
				g, err := src.Read(gi)
				if err != nil {
					return checked, err
				}
				row := make(data.Row, g.NumCols())
				for i := range g.NumRows() {
					at := first + i
					if at >= len(tags) {
						return checked, fmt.Errorf("stage of nodes %v: %d tags, row %d has none", sd.keyNodes, len(tags), at)
					}
					for c := range row {
						row[c] = g.Dict(c)[g.Codes(c)[i]]
					}
					if tag := tags[at]; int(tag) >= len(m.tags.paths) || !m.tags.paths[tag].Eval(row) {
						return checked, fmt.Errorf("stage of nodes %v: row %d %v has tag %d, which it does not fit", sd.keyNodes, at, row, tag)
					}
					checked++
				}
				first += g.NumRows()
			}
			if first != len(tags) {
				return checked, fmt.Errorf("stage of nodes %v: %d rows, %d tags", sd.keyNodes, first, len(tags))
			}
		}
	}
	return checked, nil
}

// PooledScratchLeaks lists, by path, what the scan scratch and the tag states
// in the process pool still hold of the builds they served: any pointer (a
// segment meter, plan, shard, paths trie, row group or spares), dictionary values, code
// vectors, a compiled trie's terminal lists, a row's tags, a request's path, a
// registered node. Empty when the pool holds storage only.
func PooledScratchLeaks() []string {
	pool.Lock()
	defer pool.Unlock()
	var out []string
	for i, ls := range pool.scratch {
		scratchLeaks(reflect.ValueOf(ls).Elem(), fmt.Sprintf("scratch[%d]", i), &out)
	}
	for i, ts := range pool.tags {
		scratchLeaks(reflect.ValueOf(ts).Elem(), fmt.Sprintf("tags[%d]", i), &out)
	}
	return out
}

var (
	valueType = reflect.TypeOf(data.Value(0))
	codeType  = reflect.TypeOf(uint16(0))
	condType  = reflect.TypeOf(predicate.Cond{})
	// The consumer's callback is bound to the scratch's own colConsumer.
	callbackOwner = reflect.TypeOf(engine.ScanConsumer{})
)

// scratchLeaks walks v — structs, arrays, slices up to their capacity — and
// appends the path of every reference it finds into a build to out: a map
// counts once it holds an entry, a consumer's Tags once they are set.
func scratchLeaks(v reflect.Value, path string, out *[]string) {
	switch v.Kind() {
	case reflect.Map:
		if v.Len() > 0 {
			*out = append(*out, path)
		}
	case reflect.Pointer, reflect.Interface, reflect.Chan, reflect.Func:
		if !v.IsNil() {
			*out = append(*out, path)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if v.Type() == callbackOwner && f.Name == "Fn" {
				continue
			}
			scratchLeaks(v.Field(i), path+"."+f.Name, out)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			scratchLeaks(v.Index(i), fmt.Sprintf("%s[%d]", path, i), out)
		}
	case reflect.Slice:
		if v.IsNil() {
			return
		}
		elem := v.Type().Elem()
		switch {
		case elem == valueType, elem == codeType, elem == condType, strings.HasSuffix(path, ".terms"), strings.HasSuffix(path, ".Tags"):
			*out = append(*out, path)
		case elem.Kind() >= reflect.Int && elem.Kind() <= reflect.Float64:
			// storage of the scratch's own: selection vectors, histograms
		default:
			v = v.Slice(0, v.Cap())
			for i := 0; i < v.Len(); i++ {
				scratchLeaks(v.Index(i), fmt.Sprintf("%s[%d]", path, i), out)
			}
		}
	}
}

// SetDeriveOff makes every later batch count every node (off) or derive the
// tables it can from their parents' and siblings', and returns the setting it
// replaced.
func SetDeriveOff(off bool) bool {
	prev := deriveOff
	deriveOff = off
	return prev
}

// Derived returns how many nodes, process-wide, batches reading source
// ("server", "file" or "memory"; "" for any) have derived instead of counted,
// and how many rows all derived nodes held.
func Derived(source string) (nodes, rows int64) {
	for k := range derivedNodes {
		if source == "" || source == sourceKind(k).name() {
			nodes += derivedNodes[k].Load()
		}
	}
	return nodes, derivedRows.Load()
}

// EmptyPool drops everything the process pool holds, so a test starts from
// the same pool whatever ran before it in the process.
func EmptyPool() {
	pool.Lock()
	defer pool.Unlock()
	pool.tables, pool.scratch, pool.tags, pool.tagBytes = nil, nil, nil, 0
}

package mw

import (
	"fmt"
	"reflect"
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

// TaggedScans returns how many batches, process-wide, have walked their rows
// by their tags.
func TaggedScans() int64 { return taggedScans.Load() }

// PairRows returns how many rows, process-wide, tagged scans have bucketed by a
// pair select.
func PairRows() int64 { return pairRows.Load() }

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

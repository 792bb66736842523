package mw

import (
	"fmt"
	"reflect"
	"strings"

	"repro/internal/cc"
	"repro/internal/data"
	"repro/internal/engine"
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

// SegmentRuns returns how many lanes, process-wide, have run as more than one
// segment.
func SegmentRuns() int64 { return segmentRuns.Load() }

// PooledScratchLeaks lists, by path, what the lane scratch in the process pool
// still holds of the builds it served: any pointer (a lane meter, plan, shard,
// paths trie, row group or spares), dictionary values, code vectors, a
// compiled trie's terminal lists. Empty when the pool holds storage only.
func PooledScratchLeaks() []string {
	pool.Lock()
	defer pool.Unlock()
	var out []string
	for i, ls := range pool.scratch {
		scratchLeaks(reflect.ValueOf(ls).Elem(), fmt.Sprintf("scratch[%d]", i), &out)
	}
	return out
}

var (
	valueType = reflect.TypeOf(data.Value(0))
	codeType  = reflect.TypeOf(uint16(0))
	// The consumer's callback is bound to the scratch's own colConsumer.
	callbackOwner = reflect.TypeOf(engine.ScanConsumer{})
)

// scratchLeaks walks v — structs, arrays, slices up to their capacity — and
// appends the path of every reference it finds into a build to out.
func scratchLeaks(v reflect.Value, path string, out *[]string) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface, reflect.Map, reflect.Chan, reflect.Func:
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
		case elem == valueType, elem == codeType, strings.HasSuffix(path, ".terms"):
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

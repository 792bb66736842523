package cc

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/data"
)

func benchRows(n int) []data.Row {
	rng := rand.New(rand.NewSource(1))
	rows := make([]data.Row, n)
	for i := range rows {
		rows[i] = data.Row{
			data.Value(rng.Intn(4)), data.Value(rng.Intn(4)), data.Value(rng.Intn(4)),
			data.Value(rng.Intn(4)), data.Value(rng.Intn(10)),
		}
	}
	return rows
}

// BenchmarkAddRow measures the scan-based-counting inner loop at the two
// shapes a build produces: one op counts a whole node — a fresh sized table,
// then every row over 4 attributes + class — so a deep node of a few dozen rows
// is dominated by reserving the table (allocs/op is the point there) and a
// shallow one by the per-cell search and increment (ns/row).
func BenchmarkAddRow(b *testing.B) {
	attrs, cards := []int{0, 1, 2, 3, 4}, []int{4, 4, 4, 4, 10}
	for _, shape := range []struct {
		name string
		rows int
	}{{"small-node", 32}, {"large-node", 16384}} {
		b.Run(shape.name, func(b *testing.B) {
			rows := benchRows(shape.rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := NewSized(attrs, cards, 10)
				for _, r := range rows {
					t.AddRow(r, attrs)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*shape.rows), "ns/row")
		})
	}
}

// BenchmarkClassVector measures reading one (attr, value) class vector, the
// split-scoring hot path.
func BenchmarkClassVector(b *testing.B) {
	t := New()
	attrs := []int{0, 1, 2, 3, 4}
	for _, r := range benchRows(4096) {
		t.AddRow(r, attrs)
	}
	vec := make([]int64, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.ClassVector(i&3, data.Value(i&3), vec)
	}
}

// BenchmarkMerge measures folding one 4k-entry shard into a same-sized table,
// the per-worker post-barrier cost of the parallel scan pipeline.
func BenchmarkMerge(b *testing.B) {
	attrs := []int{0, 1, 2, 3, 4}
	shard := New()
	for _, r := range benchRows(4096) {
		shard.AddRow(r, attrs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dst := shard.Clone()
		b.StartTimer()
		dst.Merge(shard)
	}
}

// BenchmarkEstimate measures the scheduler's Est_cc computation.
func BenchmarkEstimate(b *testing.B) {
	t := New()
	attrs := []int{0, 1, 2, 3, 4}
	for _, r := range benchRows(4096) {
		t.AddRow(r, attrs)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = EstimateEntries(t, attrs[:4], 1000, 4096, 10)
	}
}

// bucketShape is one bucket of the block kernel: rows of a 1024-row block's
// selected for one node, codes into 10 values and classes classes.
func bucketShape(classes, rows int) (dict, classDict []data.Value, codes, classCodes []uint16, sel []int32) {
	rng := rand.New(rand.NewSource(1))
	dict, classDict = make([]data.Value, 10), make([]data.Value, classes)
	for v := range dict {
		dict[v] = data.Value(v)
	}
	for c := range classDict {
		classDict[c] = data.Value(c)
	}
	codes, classCodes = make([]uint16, 1024), make([]uint16, 1024)
	for i := range codes {
		codes[i], classCodes[i] = uint16(rng.Intn(len(dict))), uint16(rng.Intn(classes))
	}
	for _, i := range rng.Perm(1024)[:rows] {
		sel = append(sel, int32(i))
	}
	slices.Sort(sel)
	return dict, classDict, codes, classCodes, sel
}

// BenchmarkAddMany measures one counted attribute of one bucket: the histogram
// bumps and the fold into the node's table, in ns per selected row. Two
// shapes: 2-class is build_scan's deep node, 13 rows over 10 values and 2
// classes; 10-class is a shallow node of build_staged's tree data, 256 rows
// over 10 values and 10 classes, where a fold meets each class under several
// values.
func BenchmarkAddMany(b *testing.B) {
	for _, shape := range []struct {
		name          string
		classes, rows int
	}{{"2-class", 2, 13}, {"10-class", 10, 256}} {
		b.Run(shape.name, func(b *testing.B) {
			dict, classDict, codes, classCodes, sel := bucketShape(shape.classes, shape.rows)
			t := NewSized([]int{0}, []int{len(dict)}, len(classDict))
			var hist []int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hist, _ = t.AddMany(0, dict, codes, classDict, classCodes, sel, hist)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sel)), "ns/row")
		})
	}
}

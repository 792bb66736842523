package cc

import (
	"fmt"
	"slices"

	"repro/internal/data"
)

// Derive turns t, the counts table of a split node, into the table of one of
// its children, computed from its siblings' tables instead of from rows. Every
// row of the node lands in exactly one child, so the child's cells are the
// node's less the siblings', cell by cell: §4.2.1's exactness of a child's size
// and class histogram, applied to the whole table (the histogram subtraction
// of gradient-boosted tree libraries).
//
// The split partitions the node's rows on attribute split: the child holds
// those whose value of it is val (eq) or is not val (!eq). The child counts the
// attributes attrs. Its column of split, if listed, is the node's row val alone
// or the node's column less row val; every other listed column is the node's
// less the siblings', and every sibling must count it; columns not listed go. A
// value whose cells all come to zero goes too, as it is never entered in a
// counted table, so t ends equal to the table counting the child's rows would
// have built in every observable; its row count is the node's less the
// siblings'. (A class the child lacks keeps its rank, all zeros: no observable
// shows a class without a count.)
//
// The difference is taken in place, in t's own arrays — every cell moves to an
// index no higher than its own — so Derive allocates nothing. It panics when
// the siblings are not a partition of t's rows and a cell would come out
// negative.
func (t *Table) Derive(siblings []*Table, attrs []int, split int, val data.Value, eq bool) {
	for _, s := range siblings {
		t.rows -= s.rows
	}
	t.entries = 0
	for a := range t.cols {
		c := &t.cols[a]
		if !slices.Contains(attrs, a) {
			c.vals, c.counts = c.vals[:0], c.counts[:0]
			continue
		}
		kept := 0
		for r, v := range c.vals {
			if a == split && (v == val) != eq {
				continue
			}
			row := c.counts[kept*t.stride : kept*t.stride+len(t.classes)]
			copy(row, c.counts[r*t.stride:])
			if a != split {
				for _, s := range siblings {
					for sci, k := range s.vector(a, v) {
						if k == 0 {
							continue
						}
						ci, ok := find(t.classes, s.classes[sci])
						if !ok {
							panic(fmt.Sprintf("cc: Derive: sibling class %d is not the node's", s.classes[sci]))
						}
						row[ci] -= k
					}
				}
			}
			nz := 0
			for ci, k := range row {
				if k < 0 {
					panic(fmt.Sprintf("cc: Derive: cell (%d, %d, %d) comes to %d", a, v, t.classes[ci], k))
				}
				if k > 0 {
					nz++
				}
			}
			if nz > 0 {
				c.vals[kept] = v
				kept++
				t.entries += nz
			}
		}
		c.vals, c.counts = c.vals[:kept], c.counts[:kept*t.stride]
	}
}

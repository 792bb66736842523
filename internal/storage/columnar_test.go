package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/data"
)

func TestColStoreRoundTrip(t *testing.T) {
	const ncols = 4
	rng := rand.New(rand.NewSource(19))
	n := RowGroupSize + 700 // one sealed group plus an open tail
	rows := make([][]data.Value, n)
	cs := NewColStore(ncols)
	for i := range rows {
		row := make([]data.Value, ncols)
		for c := range row {
			row[c] = data.Value(rng.Intn(50))
		}
		rows[i] = row
		cs.Append(row)
	}
	if cs.NumRows() != int64(n) {
		t.Fatalf("NumRows = %d, want %d", cs.NumRows(), n)
	}
	if cs.NumGroups() != 2 {
		t.Fatalf("NumGroups = %d, want 2", cs.NumGroups())
	}
	// Decoding every group in order must reproduce the appended rows exactly.
	got := 0
	for g := 0; g < cs.NumGroups(); g++ {
		grp := cs.Group(g)
		for i := 0; i < grp.NumRows(); i++ {
			for c := 0; c < ncols; c++ {
				v := grp.Dict(c)[grp.Codes(c)[i]]
				if v != rows[got][c] {
					t.Fatalf("group %d row %d col %d = %d, want %d", g, i, c, v, rows[got][c])
				}
			}
			got++
		}
	}
	if got != n {
		t.Fatalf("decoded %d rows, want %d", got, n)
	}
}

func TestColGroupDictSortedAndCountsExact(t *testing.T) {
	cs := NewColStore(2)
	vals := []data.Value{5, 1, 5, 9, 1, 5, 0}
	for _, v := range vals {
		cs.Append([]data.Value{v, 3})
	}
	g := cs.Group(0) // open tail, encoded on demand
	dict := g.Dict(0)
	want := []data.Value{0, 1, 5, 9}
	if len(dict) != len(want) {
		t.Fatalf("dict = %v, want %v", dict, want)
	}
	for i := range want {
		if dict[i] != want[i] {
			t.Fatalf("dict = %v, want %v", dict, want)
		}
	}
	counts := codeCounts(g, 0)
	wantCounts := []int64{1, 2, 3, 1}
	for i := range wantCounts {
		if counts[i] != wantCounts[i] {
			t.Fatalf("counts = %v, want %v", counts, wantCounts)
		}
	}
	// Constant column collapses to a single dictionary entry.
	if d := g.Dict(1); len(d) != 1 || d[0] != 3 || codeCounts(g, 1)[0] != int64(len(vals)) {
		t.Fatalf("constant column dict = %v counts = %v", d, codeCounts(g, 1))
	}
}

// codeCounts counts the rows of g holding each code of col, read from its
// code vector: every dictionary value is used iff none is zero.
func codeCounts(g *ColGroup, col int) []int64 {
	counts := make([]int64, len(g.Dict(col)))
	for _, code := range g.Codes(col) {
		counts[code]++
	}
	return counts
}

func TestColGroupFindCode(t *testing.T) {
	cs := NewColStore(1)
	for _, v := range []data.Value{10, 20, 30} {
		cs.Append([]data.Value{v})
	}
	g := cs.Group(0)
	if code, ok := g.FindCode(0, 20); !ok || code != 1 {
		t.Fatalf("FindCode(20) = %d, %v", code, ok)
	}
	for _, miss := range []data.Value{5, 15, 35} {
		if _, ok := g.FindCode(0, miss); ok {
			t.Fatalf("FindCode(%d) should miss", miss)
		}
	}
}

func TestColGroupPages(t *testing.T) {
	cs := NewColStore(3)
	for i := 0; i < RowGroupSize; i++ {
		cs.Append([]data.Value{data.Value(i % 8), data.Value(i % 300), data.Value(i % 2)})
	}
	g := cs.Group(0)
	// Column 0: 8-entry dict, byte codes -> 4096 + 32 bytes -> 1 page.
	// Column 1: 300-entry dict, 2-byte codes -> 8192 + 1200 bytes -> 2 pages.
	if p := g.Pages([]int{0}); p != 1 {
		t.Fatalf("Pages(col0) = %d, want 1", p)
	}
	if p := g.Pages([]int{1}); p != 2 {
		t.Fatalf("Pages(col1) = %d, want 2", p)
	}
	if p := g.Pages(nil); p != 4 {
		t.Fatalf("Pages(all) = %d, want 4", p)
	}
	if b := g.Bytes([]int{0}); b != 4*8+RowGroupSize {
		t.Fatalf("Bytes(col0) = %d", b)
	}
}

func TestColStoreTailCacheInvalidation(t *testing.T) {
	cs := NewColStore(1)
	cs.Append([]data.Value{1})
	g1 := cs.Group(0)
	if g1.NumRows() != 1 {
		t.Fatalf("tail rows = %d, want 1", g1.NumRows())
	}
	cs.Append([]data.Value{2})
	g2 := cs.Group(0)
	if g2.NumRows() != 2 {
		t.Fatalf("tail rows after append = %d, want 2", g2.NumRows())
	}
	if v := g2.Dict(0)[g2.Codes(0)[1]]; v != 2 {
		t.Fatalf("tail row 1 = %d, want 2", v)
	}
}

// randRows draws n rows of ncols small values; column c has c+2 distinct ones,
// clustered so that short runs of rows miss some of them.
func randRows(rng *rand.Rand, n, ncols int) [][]data.Value {
	rows := make([][]data.Value, n)
	for i := range rows {
		rows[i] = make([]data.Value, ncols)
		for c := range rows[i] {
			rows[i][c] = data.Value((i/97 + rng.Intn(2)) % (c + 2) * 3)
		}
	}
	return rows
}

// sameGroup reports whether two groups hold the same rows under the same
// dictionaries.
func sameGroup(a, b *ColGroup) bool {
	if a.NumRows() != b.NumRows() || a.NumCols() != b.NumCols() {
		return false
	}
	for c := 0; c < a.NumCols(); c++ {
		if !slices.Equal(a.Dict(c), b.Dict(c)) || !slices.Equal(a.Codes(c), b.Codes(c)) {
			return false
		}
	}
	return true
}

// TestGroupBuilderSelMatchesRows: rows selected from groups a few at a time, in
// code space, seal into exactly the groups the same rows make when appended one
// by one — sorted dictionaries of only the values present, exact counts — with
// groups cut at the same row counts, whatever the pieces' sizes.
func TestGroupBuilderSelMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const ncols, size = 5, 300
	cs := NewColStore(ncols)
	rows := randRows(rng, 2*RowGroupSize+500, ncols)
	for _, r := range rows {
		cs.Append(r)
	}
	bySel, byRow := NewGroupBuilder(ncols, size, 0), NewGroupBuilder(ncols, size, len(rows))
	var gotSel, gotRow []*ColGroup
	keep := func(dst *[]*ColGroup, g *ColGroup) {
		if g != nil {
			*dst = append(*dst, g)
		}
	}
	kept := 0
	for gi, base := 0, 0; gi < cs.NumGroups(); gi++ {
		g := cs.Group(gi)
		for lo := 0; lo < g.NumRows(); {
			hi := min(lo+1+rng.Intn(size), g.NumRows())
			var sel []int32
			for i := lo; i < hi; i++ {
				if rng.Intn(3) > 0 {
					sel = append(sel, int32(i))
					keep(&gotRow, byRow.AppendRow(rows[base+i]))
					kept++
				}
			}
			keep(&gotSel, bySel.AppendSel(g, sel))
			lo = hi
		}
		base += g.NumRows()
	}
	keep(&gotSel, bySel.Seal())
	keep(&gotRow, byRow.Seal())
	if bySel.Seal() != nil {
		t.Fatal("a sealed builder is not empty")
	}
	if len(gotSel) != (kept+size-1)/size || len(gotSel) != len(gotRow) {
		t.Fatalf("%d groups by selection, %d by row, for %d rows in groups of %d", len(gotSel), len(gotRow), kept, size)
	}
	for i := range gotSel {
		if !sameGroup(gotSel[i], gotRow[i]) {
			t.Fatalf("group %d: built from selections it differs from the same rows appended one by one", i)
		}
		for c := 0; c < ncols; c++ {
			if counts := codeCounts(gotSel[i], c); !slices.IsSorted(gotSel[i].Dict(c)) || slices.Contains(counts, 0) {
				t.Fatalf("group %d column %d: dictionary %v counts %v — want sorted, every value used", i, c, gotSel[i].Dict(c), counts)
			}
		}
	}
}

// TestGroupBuilderRecycleMatchesFresh: a builder that seals its groups into
// code vectors recycled from groups it sealed before — and that is reset with
// rows still open — seals groups identical to a fresh builder's given the same
// rows (dictionaries, codes); a recycled group keeps its zone.
func TestGroupBuilderRecycleMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const ncols, size = 4, 256
	var spares Spares
	// The recycling builder expects more rows than it gets, so every group's
	// vectors are sized for a whole group and none outgrows its spare.
	const want = 1 << 30
	reused, fresh := NewGroupBuilder(ncols, size, 0), NewGroupBuilder(ncols, size, 0)
	reused.Reset(want, &spares)
	recycled := map[*uint16]bool{}
	check := func(round int, got, want *ColGroup) {
		t.Helper()
		if (got == nil) != (want == nil) || got != nil && !sameGroup(got, want) {
			t.Fatalf("round %d: the recycling builder sealed a group unlike the fresh one's", round)
		}
		if got == nil {
			return
		}
		for c := 0; c < ncols && len(recycled) >= ncols; c++ {
			if !recycled[&got.Codes(c)[:1][0]] {
				t.Fatalf("round %d: column %d was sealed into a new vector with spares at hand", round, c)
			}
		}
		dict := slices.Clone(got.Dict(0))
		for c := 0; c < ncols; c++ {
			recycled[&got.Codes(c)[:1][0]] = true
		}
		spares.Recycle(got)
		if got.Codes(0) != nil || !slices.Equal(got.Dict(0), dict) {
			t.Fatalf("round %d: a recycled group lost its zone or kept its codes", round)
		}
	}
	for round := 0; round < 40; round++ {
		for _, r := range randRows(rng, rng.Intn(2*size), ncols) {
			check(round, reused.AppendRow(r), fresh.AppendRow(r))
		}
		if rng.Intn(4) == 0 { // drop the open rows: both start over
			reused.Reset(want, &spares)
			fresh = NewGroupBuilder(ncols, size, 0)
		} else {
			check(round, reused.Seal(), fresh.Seal())
		}
	}
}

// TestGroupImageRoundTripAndRefusals: a group's code image decodes, under its
// zone, to the group; and an image the zone does not describe — cut short
// anywhere, grown, or with a code past its dictionary — is refused with an
// error, never decoded or indexed by.
func TestGroupImageRoundTripAndRefusals(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const ncols, nrows = 3, 700
	b := NewGroupBuilder(ncols, RowGroupSize, 0)
	for _, r := range randRows(rng, nrows, ncols) {
		b.AppendRow(r)
	}
	g := b.Seal()
	z, img := g.Zone(), g.AppendCodes(nil)
	var into ColGroup
	got, err := z.DecodeCodes(img, &into)
	if err != nil || !sameGroup(got, g) {
		t.Fatalf("round trip: err %v, same %v", err, err == nil && sameGroup(got, g))
	}
	if z.Codes(0) != nil || !slices.Equal(z.Dict(1), g.Dict(1)) || z.NumRows() != g.NumRows() {
		t.Fatal("a zone is the group's row count and dictionaries, without code vectors")
	}
	refuse := func(what string, bad []byte) {
		t.Helper()
		if _, err := z.DecodeCodes(bad, &into); err == nil {
			t.Errorf("%s: decoded without error", what)
		}
	}
	for n := 0; n < len(img); n += 1 + n/16 {
		refuse("truncated", img[:n])
	}
	refuse("one byte longer", append(slices.Clone(img), 0))
	for c := 0; c < ncols; c++ {
		for _, tc := range []struct {
			what string
			off  int
			val  byte
		}{
			{"code past its dictionary", 2 * nrows * c, byte(len(g.Dict(c)))},
			{"code past 255", 2*nrows*(c+1) - 1, 0x01},
		} {
			bad := slices.Clone(img)
			bad[tc.off] = tc.val
			refuse(fmt.Sprintf("column %d: %s", c, tc.what), bad)
		}
	}
}

// TestAppendRowRefusesOtherWidths: a row wider or narrower than the builder's
// columns panics by name at the one encoder, whoever calls it — a narrower one
// would otherwise leave the open group's code vectors at different lengths.
func TestAppendRowRefusesOtherWidths(t *testing.T) {
	for _, width := range []int{2, 4} {
		func() {
			defer func() {
				if r := recover(); r != "storage: columnar row width mismatch" {
					t.Errorf("row of %d values into 3 columns: recovered %v", width, r)
				}
			}()
			NewGroupBuilder(3, RowGroupSize, 0).AppendRow(make([]data.Value, width))
		}()
	}
}

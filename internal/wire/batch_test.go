package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// payload hand-assembles a batch payload: an int is a uvarint, an int64 a
// zigzag varint, a string or []byte its raw bytes.
func payload(parts ...any) []byte {
	var p []byte
	for _, part := range parts {
		switch v := part.(type) {
		case int:
			p = binary.AppendUvarint(p, uint64(v))
		case int64:
			p = binary.AppendVarint(p, v)
		case string:
			p = append(p, v...)
		case []byte:
			p = append(p, v...)
		}
	}
	return p
}

// encode returns msg's payload as WriteFrame produces it.
func encode(t testing.TB, typ Type, msg any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, typ, msg); err != nil {
		t.Fatalf("encode %s: %v", typ, err)
	}
	return buf.Bytes()[headerLen:]
}

func sameScored(a, b *ScoredBatch) bool {
	if a.Model != b.Model || len(a.Classes) != len(b.Classes) || len(a.Dists) != len(b.Dists) {
		return false
	}
	for i := range a.Classes {
		if a.Classes[i] != b.Classes[i] {
			return false
		}
	}
	for i := range a.Dists {
		if len(a.Dists[i]) != len(b.Dists[i]) {
			return false
		}
		for j := range a.Dists[i] {
			if a.Dists[i][j] != b.Dists[i][j] {
				return false
			}
		}
	}
	return true
}

func sameRows(a, b *RowBatch) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				return false
			}
		}
	}
	return true
}

var (
	edgeInts = []int64{0, 1, -1, 63, 64, -64, -65, 127, 128, 1 << 40, math.MinInt64, math.MaxInt64, math.MinInt32, math.MaxInt32}
	edgeStrs = []string{"", "a", "b", "héllo", "日本語", "a\x00b", strings.Repeat("x", 200)}
)

func randInt(rng *rand.Rand) int64 {
	if rng.Intn(2) == 0 {
		return edgeInts[rng.Intn(len(edgeInts))]
	}
	return rng.Int63() >> uint(rng.Intn(64)) * int64(1-2*rng.Intn(2))
}

func randRowBatch(rng *rand.Rand) RowBatch {
	rows := rng.Intn(40) // zero rows is zero columns: an empty batch has no width
	if rows == 0 {
		return RowBatch{}
	}
	kinds := make([]int, 1+rng.Intn(5)) // per column: 0 ints, 1 strings, 2 either
	for c := range kinds {
		kinds[c] = rng.Intn(3)
	}
	var b RowBatch
	for i := 0; i < rows; i++ {
		row := make([]Cell, len(kinds))
		for c, kind := range kinds {
			if kind == 1 || kind == 2 && rng.Intn(2) == 0 {
				row[c] = Cell{Str: true, S: edgeStrs[rng.Intn(len(edgeStrs))]}
			} else {
				row[c] = Cell{I: randInt(rng)}
			}
		}
		b.Rows = append(b.Rows, row)
	}
	return b
}

func randScoredBatch(rng *rand.Rand) ScoredBatch {
	b := ScoredBatch{Model: edgeStrs[rng.Intn(len(edgeStrs))]}
	rows, k := rng.Intn(40), rng.Intn(4) // k = 0: class labels only
	for i := 0; i < rows; i++ {
		b.Classes = append(b.Classes, int32(randInt(rng)))
		if k > 0 {
			d := make([]int64, k)
			for j := range d {
				d[j] = randInt(rng)
			}
			b.Dists = append(b.Dists, d)
		}
	}
	return b
}

// TestBatchRoundTripProperty: decode(encode(b)) == b for random batches of
// both kinds, every frame decoded into the same two batches, so a value left
// over from the previous (differently shaped) frame would show.
func TestBatchRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var rowsInto RowBatch
	var scoredInto ScoredBatch
	for i := 0; i < 2000; i++ {
		rb := randRowBatch(rng)
		p := encode(t, TRowBatch, &rb)
		if err := Unmarshal(p, &rowsInto); err != nil {
			t.Fatalf("row batch %d: %v\n%+v", i, err, rb.Rows)
		}
		if !sameRows(&rb, &rowsInto) {
			t.Fatalf("row batch %d: decoded\n%+v\nwant\n%+v", i, rowsInto.Rows, rb.Rows)
		}
		if again := encode(t, TRowBatch, &rowsInto); !bytes.Equal(again, p) {
			t.Fatalf("row batch %d: re-encoding the decoded batch changed the payload", i)
		}

		sb := randScoredBatch(rng)
		p = encode(t, TScoredBatch, &sb)
		if err := Unmarshal(p, &scoredInto); err != nil {
			t.Fatalf("scored batch %d: %v\n%+v", i, err, sb)
		}
		if !sameScored(&sb, &scoredInto) {
			t.Fatalf("scored batch %d: decoded\n%+v\nwant\n%+v", i, scoredInto, sb)
		}
	}
}

// TestBatchRefusals: every way a payload can lie — a count the bytes cannot
// back, a code outside its dictionary, a class outside int32, a distribution
// chunk that disagrees with rows × k, bytes left over, a second encoding of
// the same batch — is a *BatchError, and the batch it was decoded into comes
// back empty.
func TestBatchRefusals(t *testing.T) {
	huge := 1 << 40
	cases := []struct {
		name string
		typ  Type
		p    []byte
		want string
	}{
		{"scored: empty payload", TScoredBatch, nil, "truncated varint"},
		{"scored: model name longer than payload", TScoredBatch, payload(9, "m"), "model name length exceeds"},
		{"scored: hostile row count", TScoredBatch, payload(1, "m", huge, 0, 0), "row count exceeds"},
		{"scored: hostile width", TScoredBatch, payload(1, "m", 1, huge, 1, int64(0)), "distribution width exceeds"},
		{"scored: rows × k past the payload", TScoredBatch, payload(1, "m", 3, 3, 3, int64(0), int64(0), int64(0), 9), "rows × distribution width"},
		{"scored: width without rows", TScoredBatch, payload(1, "m", 0, 1, 0), "width without rows"},
		{"scored: class count mismatch", TScoredBatch, payload(1, "m", 2, 0, 1, int64(0)), "class column has 1 values for 2 rows"},
		{"scored: class outside int32", TScoredBatch, payload(1, "m", 1, 0, 1, int64(math.MaxInt32+1)), "outside int32"},
		{"scored: dist chunk disagrees with rows × k", TScoredBatch, payload(1, "m", 2, 2, 2, int64(0), int64(1), 3, int64(5), int64(6), int64(7)), "3 distribution counts for 2 rows of width 2"},
		{"scored: dist chunk past the payload", TScoredBatch, payload(1, "m", 1, 2, 1, int64(0), 2, int64(5)), "distribution count exceeds"},
		{"scored: truncated dist chunk", TScoredBatch, payload(1, "m", 1, 2, 1, int64(0), 2, int64(5), []byte{0x80}), "truncated varint"},
		{"scored: trailing bytes", TScoredBatch, payload(1, "m", 1, 0, 1, int64(0), "zz"), "2 trailing bytes"},
		{"scored: over-long varint", TScoredBatch, payload(1, "m", []byte{0x81, 0x00}, 0, 1, int64(0)), "over-long varint"},
		{"scored: varint past 64 bits", TScoredBatch, payload(1, "m", bytes.Repeat([]byte{0xff}, 10), []byte{0x01}), "overflows"},

		{"rows: empty payload", TRowBatch, nil, "truncated varint"},
		{"rows: hostile row count", TRowBatch, payload(huge, 1), "row count exceeds"},
		{"rows: hostile column count", TRowBatch, payload(1, huge, []byte{colInt}, int64(0)), "column count exceeds"},
		{"rows: rows × cols past the payload", TRowBatch, payload(4, 4, bytes.Repeat([]byte{0}, 12)), "rows × columns"},
		{"rows: rows without columns", TRowBatch, payload(3, 0, "abc"), "3 rows of 0 columns"},
		{"rows: columns without rows", TRowBatch, payload(0, 1, []byte{colInt}), "0 rows of 1 columns"},
		{"rows: unknown column type", TRowBatch, payload(1, 1, []byte{7}, int64(0)), "unknown column type 7"},
		{"rows: truncated int column", TRowBatch, payload(2, 1, []byte{colInt}, int64(5), []byte{0x80}), "truncated varint"},
		{"rows: hostile dictionary size", TRowBatch, payload(1, 1, []byte{colStr}, huge), "dictionary size exceeds"},
		{"rows: dictionary larger than the column", TRowBatch, payload(1, 1, []byte{colStr}, 2, 0, 1, "a", 0), "dictionary of 2 entries for 1 rows"},
		{"rows: hostile string length", TRowBatch, payload(1, 1, []byte{colStr}, 1, huge), "string length exceeds"},
		{"rows: code outside the dictionary", TRowBatch, payload(2, 1, []byte{colStr}, 1, 1, "a", 0, 1), "dictionary code 1 of 1"},
		{"rows: dictionary out of first-use order", TRowBatch, payload(2, 1, []byte{colStr}, 2, 1, "a", 1, "b", 1, 0), "order of first use"},
		{"rows: duplicate dictionary entry", TRowBatch, payload(2, 1, []byte{colStr}, 2, 1, "a", 1, "a", 0, 1), "duplicate dictionary entry"},
		{"rows: unused dictionary entry", TRowBatch, payload(2, 1, []byte{colStr}, 2, 1, "a", 1, "b", 0, 0), "unused dictionary entry"},
		{"rows: unknown cell tag", TRowBatch, payload(1, 1, []byte{colMixed, 9}), "unknown cell tag 9"},
		{"rows: mixed column of one kind", TRowBatch, payload(2, 1, []byte{colMixed, colInt}, int64(1), []byte{colInt}, int64(2)), "mixed column holds one kind"},
		{"rows: trailing bytes", TRowBatch, payload(1, 1, []byte{colInt}, int64(1), "!"), "1 trailing bytes"},
	}
	for _, tc := range cases {
		var err error
		var left int
		if tc.typ == TScoredBatch {
			b := randScoredBatch(rand.New(rand.NewSource(1)))
			err = Unmarshal(tc.p, &b)
			left = len(b.Classes) + len(b.Dists)
		} else {
			b := randRowBatch(rand.New(rand.NewSource(1)))
			err = Unmarshal(tc.p, &b)
			left = len(b.Rows)
		}
		var be *BatchError
		if !errors.As(err, &be) || be.Frame != tc.typ || !strings.Contains(err.Error(), tc.want) ||
			!strings.HasPrefix(err.Error(), "wire: ") {
			t.Errorf("%s: error %v, want a wire: BatchError containing %q", tc.name, err, tc.want)
		}
		if left != 0 {
			t.Errorf("%s: a refused payload left %d rows in the batch", tc.name, left)
		}
	}
}

// TestEncodeRefusesMisshapenBatches: the encoder writes nothing for a batch
// the column layout cannot carry.
func TestEncodeRefusesMisshapenBatches(t *testing.T) {
	cases := []struct {
		name string
		typ  Type
		msg  any
		want string
	}{
		{"dists misaligned with classes", TScoredBatch,
			ScoredBatch{Classes: []int32{0}, Dists: [][]int64{{1, 2}, {3, 4}}}, "2 distributions for 1 rows"},
		{"ragged dists", TScoredBatch,
			&ScoredBatch{Classes: []int32{0, 1}, Dists: [][]int64{{1, 2}, {3}}}, "ragged distributions"},
		{"ragged dists after an empty first", TScoredBatch,
			&ScoredBatch{Classes: []int32{0, 1}, Dists: [][]int64{{}, {3}}}, "ragged distributions"},
		{"ragged rows", TRowBatch,
			RowBatch{Rows: [][]Cell{{{I: 1}, {I: 2}}, {{I: 3}}}}, "ragged rows"},
		{"rows of no columns", TRowBatch,
			&RowBatch{Rows: [][]Cell{{}, {}}}, "2 rows of no columns"},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		err := WriteFrame(&buf, tc.typ, tc.msg)
		var be *BatchError
		if !errors.As(err, &be) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want a BatchError containing %q", tc.name, err, tc.want)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: %d bytes written for a refused batch", tc.name, buf.Len())
		}
	}
}

// scoredFrame is a daemon-shaped scored batch: BatchRows rows, two classes,
// leaf-sized counts.
func scoredFrame() *ScoredBatch {
	rng := rand.New(rand.NewSource(3))
	b := &ScoredBatch{Model: "m"}
	for i := 0; i < BatchRows; i++ {
		b.Classes = append(b.Classes, int32(rng.Intn(2)))
		b.Dists = append(b.Dists, []int64{rng.Int63n(5000), rng.Int63n(5000)})
	}
	return b
}

// rowFrame is a scan-shaped row batch: BatchRows rows of eight small integers
// and, with strs, one low-cardinality string column.
func rowFrame(strs bool) *RowBatch {
	rng := rand.New(rand.NewSource(4))
	b := &RowBatch{}
	for i := 0; i < BatchRows; i++ {
		row := make([]Cell, 8, 9)
		for c := range row {
			row[c].I = rng.Int63n(40)
		}
		if strs {
			row = append(row, Cell{Str: true, S: edgeStrs[rng.Intn(4)]})
		}
		b.Rows = append(b.Rows, row)
	}
	return b
}

// TestBatchCodecAllocs: steady state — a reused batch on either side of the
// wire — the scored codec allocates nothing per frame, and neither does the
// integer row-batch codec.
func TestBatchCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds buffers at random under the race detector")
	}
	sb, rb := scoredFrame(), rowFrame(false)
	sp, rp := encode(t, TScoredBatch, sb), encode(t, TRowBatch, rb)
	var sInto ScoredBatch
	var rInto RowBatch
	for name, fn := range map[string]func(){
		"encode scored": func() { WriteFrame(io.Discard, TScoredBatch, sb) },
		"decode scored": func() { Unmarshal(sp, &sInto) },
		"encode rows":   func() { WriteFrame(io.Discard, TRowBatch, rb) },
		"decode rows":   func() { Unmarshal(rp, &rInto) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s: %v allocs per %d-row frame, want 0", name, n, BatchRows)
		}
	}
	if !sameScored(sb, &sInto) || !sameRows(rb, &rInto) {
		t.Fatal("the measured decodes did not reproduce their batches")
	}
}

// TestReaderReusesPayload: a Reader hands out frames from one buffer — the
// second frame's payload overwrites the first's — and is an io.Reader Expect
// can share the stream with.
func TestReaderReusesPayload(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, TQuery, Query{SQL: "SELECT 1"})
	WriteFrame(&buf, TQuery, Query{SQL: "SELECT 2"})
	WriteFrame(&buf, TDone, Done{Rows: 7})
	WriteFrame(&buf, TGoodbye, nil)
	r := NewReader(&buf)
	_, p1, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	first := string(p1)
	_, p2, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if &p1[0] != &p2[0] {
		t.Error("second frame's payload is a new buffer")
	}
	if string(p2) == first || !strings.Contains(string(p2), "SELECT 2") {
		t.Errorf("second payload = %q", p2)
	}
	var d Done
	if err := Expect(r, TDone, &d); err != nil || d.Rows != 7 {
		t.Fatalf("Expect over the Reader: %v, %+v", err, d)
	}
	if typ, p, err := r.ReadFrame(); err != nil || typ != TGoodbye || p != nil {
		t.Fatalf("goodbye: %v %v %v", typ, p, err)
	}
}

package data

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV writes the dataset as CSV with a header row of column names and
// integer value codes.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, d.Schema.NumCols())
	for i := range header {
		header[i] = d.Schema.ColName(i)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, d.Schema.NumCols())
	for _, r := range d.Rows {
		for i, v := range r {
			rec[i] = strconv.Itoa(int(v))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads a categorical CSV with a header row into a dataset. The last
// column is the class. Values may be arbitrary strings: each column's
// distinct values are dictionary-encoded to codes in order of first
// appearance, except that columns whose values are all small non-negative
// integers keep their numeric codes. Cardinalities are set from the observed
// domains.
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("data: read CSV header: %w", err)
	}
	ncols := len(header)
	if ncols < 2 {
		return nil, fmt.Errorf("data: CSV needs at least one attribute and a class column")
	}

	var raw [][]string
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("data: read CSV: %w", err)
		}
		if len(rec) != ncols {
			return nil, fmt.Errorf("data: CSV row has %d fields, want %d", len(rec), ncols)
		}
		raw = append(raw, rec)
	}

	// Per-column encoding: numeric passthrough when possible, else
	// dictionary in order of first appearance.
	codes := make([][]Value, len(raw))
	for i := range codes {
		codes[i] = make([]Value, ncols)
	}
	cards := make([]int, ncols)
	for c := 0; c < ncols; c++ {
		numeric := true
		maxCode := -1
		for _, rec := range raw {
			n, err := strconv.Atoi(rec[c])
			if err != nil || n < 0 || n > 1<<20 {
				numeric = false
				break
			}
			if n > maxCode {
				maxCode = n
			}
		}
		if numeric && len(raw) > 0 {
			for ri, rec := range raw {
				n, _ := strconv.Atoi(rec[c])
				codes[ri][c] = Value(n)
			}
			cards[c] = maxCode + 1
			continue
		}
		dict := map[string]Value{}
		for ri, rec := range raw {
			code, ok := dict[rec[c]]
			if !ok {
				code = Value(len(dict))
				dict[rec[c]] = code
			}
			codes[ri][c] = code
		}
		cards[c] = len(dict)
	}

	schema := &Schema{Class: Attribute{Name: header[ncols-1], Card: max(cards[ncols-1], 1)}}
	for c := 0; c < ncols-1; c++ {
		schema.Attrs = append(schema.Attrs, Attribute{Name: header[c], Card: max(cards[c], 1)})
	}
	ds := NewDataset(schema)
	for _, row := range codes {
		ds.Rows = append(ds.Rows, Row(row))
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}

package exp

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// quoted finds a parenthesised quote of a record in EXPERIMENTS.md, which
// names the record first: "(`scale1.md`: rule 3 2.711 s vs FIFO 2.564 s …)".
var (
	quoted  = regexp.MustCompile("\\(`(scale[14]\\.md)`:([^)]*)\\)")
	decimal = regexp.MustCompile(`\b\d+\.\d+\b`)
)

// TestQuotedFiguresInRecords: every decimal EXPERIMENTS.md quotes beside a
// record's name is a table cell of that record, so a change that moves
// virtual time and regenerates the records cannot leave the prose quoting
// figures the records no longer hold.
func TestQuotedFiguresInRecords(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	records := map[string]string{}
	checked := 0
	for _, q := range quoted.FindAllStringSubmatch(strings.Join(strings.Fields(string(doc)), " "), -1) {
		name := q[1]
		if _, ok := records[name]; !ok {
			b, err := os.ReadFile("testdata/" + name)
			if err != nil {
				t.Fatal(err)
			}
			records[name] = string(b)
		}
		for _, x := range decimal.FindAllString(q[2], -1) {
			if !strings.Contains(records[name], "| "+x+" |") {
				t.Errorf("EXPERIMENTS.md quotes %s from %s, which holds no such cell: %q", x, name, q[0])
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("EXPERIMENTS.md quotes no decimal beside a record's name: the pattern no longer matches its prose")
	}
}
